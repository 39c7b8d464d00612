"""Greedy-type constant estimation on finite truncations, plus the
constant-level bounds that relate them.

Estimates are reported as (lower bound witness, optional analytic upper
bound) pairs; a finite truncation never certifies an infinite-dimensional
supremum.  For polyhedral norms an exact cell search is available: once a
sign pattern is fixed, the t-greedy condition is a system of linear
inequalities, so each (index set, sign cell, dual functional) triple is a
small linear program and the truncated-space constant is the maximum over
finitely many of them.  The weakness t enters only the greedy rows, so the
cells of a whole weakness grid are built once, and each cell's objectives
are deduplicated by value.  The cell programs share no variable, so those of
a grid are stacked, a few hundred at a time, into block-diagonal programs
and solved together.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .coeffspace import (CoeffVector, GapSequence, SpaceDescriptor, projection,
                         random_vectors)
from .estimates import KINDS, BoundCheck, ConstantEstimate, _ratio
from .greedy import (_check_t, _index_set, _modulus_classes, _t_greedy_index_sets,
                     is_t_greedy, one_greedy_set, random_greedy_set)
# not called here: the benchmark's trace site greedy.enumerate_t_greedy_sets
# looks the name up in this module
from .greedy import enumerate_t_greedy_sets  # noqa: F401

__all__ = [
    "estimate_quasi_greedy_constant",
    "exact_constant_polyhedral",
    "exact_constant_grid",
    "transfer_bound_t_from_s",
    "check_suppression_one_implies_qg",
    "bounded_gap_projection_bound",
    "alternating_witness",
    "alternating_witness_estimate",
]


# ---------------------------------------------------------------------------
# Structured witness families
# ---------------------------------------------------------------------------


def alternating_witness(dim: int) -> CoeffVector:
    """(1, -1, 1, -1, ...): unit summing norm, maximal sign cancellation."""
    return CoeffVector.from_dense([1.0 if i % 2 == 0 else -1.0 for i in range(dim)])


def alternating_witness_estimate(space: SpaceDescriptor, d: int) -> ConstantEstimate:
    """The positive half of the alternating vector at dimension 2d.

    All moduli tie, so the d positive entries form a greedy set; under the
    summing norm the certified ratio is exactly d.
    """
    x = alternating_witness(2 * d)
    A = frozenset(range(1, 2 * d + 1, 2))
    ratio = space.norm(projection(x, A)) / space.norm(x)
    return ConstantEstimate(kind="C_q_t", value=float(ratio), witness_x=x,
                            witness_A=A, exact=False, t=1.0, mode="structured",
                            note="alternating tie witness")


def structured_witnesses(dim: int) -> Iterator[CoeffVector]:
    """Deterministic sign-cancellation shapes: spikes, plateaus, alternations."""
    yield CoeffVector.basis_vector(1)
    if dim >= 2:
        yield CoeffVector.from_dense(np.ones(dim))
        yield alternating_witness(dim)
        if dim % 2 == 1:
            yield alternating_witness(dim - 1)
        # one spike, then an equal plateau cancelling it
        yield CoeffVector.from_dense([1.0] + [-1.0 / (dim - 1)] * (dim - 1))
        yield CoeffVector.from_dense([1.0] + [0.5 / (dim - 1)] * (dim - 1))
        # staircase of distinct moduli
        yield CoeffVector.from_dense([(dim - i) / dim for i in range(dim)])


def _pad_to_cardinality(x: CoeffVector, m: int, dim: int) -> Optional[tuple[int, ...]]:
    """Support plus the smallest unused indices within [1, dim], sorted, if m fits."""
    supp = set(x.support())
    extra = [i for i in range(1, dim + 1) if i not in supp]
    if len(supp) + len(extra) < m:
        return None
    return tuple(sorted([*supp, *extra[: m - len(supp)]]))


# ---------------------------------------------------------------------------
# Sampling estimator
# ---------------------------------------------------------------------------


# t-greedy sets enumerated per (sample, cardinality) by the sampling estimator
_ENUMERATION_CAP = 128


def estimate_quasi_greedy_constant(space: SpaceDescriptor, gap: GapSequence, t: float,
                                   dim: int, budget: int, kind: str = "C_q_t",
                                   seed: int = 0) -> ConstantEstimate:
    """Max of |P_A(x)| / |x| (or the suppression ratio |x - P_A(x)| / |x|)
    over search samples x and all t-greedy sets A with |A| in the gap
    sequence, capped at dim.

    Search order: structured sign-cancellation witnesses, then unit-ball
    extreme points where an oracle exists, then random samples.  The value is
    a lower bound unless a contractivity certificate pins it.
    """
    _check_t(t)
    sizes = gap.admissible_sizes(dim)
    if kind not in KINDS:
        raise ValueError(f"kind must be C_q_t or C_sq_t, got {kind!r}")

    rng = np.random.default_rng(seed)
    pool: list[CoeffVector] = list(structured_witnesses(dim))
    if space.extreme_points is not None and dim <= 8:
        pool.extend(itertools.islice(
            space.extreme_points(tuple(range(1, dim + 1))), 512))
    pool.extend(random_vectors(dim, budget, rng))

    best = 0.0
    best_x: Optional[CoeffVector] = None
    best_A: Optional[tuple[int, ...]] = None  # sorted
    best_key: Optional[tuple] = None  # incumbent's tie-break key, built on its first tie
    # a spreading norm reads only the values in index order, so each distinct
    # part is normed once: value tuple -> norm
    spreading, norms = space.spreading, {}

    for x in pool:
        norm_x = space.norm(x)
        if norm_x <= 0.0:
            continue
        nnz, supp = len(x), x.support()
        classes = _modulus_classes(x)
        value_at = dict(x.pairs())
        x_json: Optional[str] = None  # x's tie-break encoding, built on its first tie
        for m in sizes:
            if m <= nnz:
                candidates = list(_t_greedy_index_sets(classes, m, t, _ENUMERATION_CAP))
                if len(candidates) > _ENUMERATION_CAP:
                    candidates[_ENUMERATION_CAP:] = [
                        tuple(sorted(one_greedy_set(x, m, t, policy).indices))
                        for policy in ("lowest", "highest")]
                    candidates = list(dict.fromkeys(candidates))
            else:
                padded = _pad_to_cardinality(x, m, dim)
                candidates = [padded] if padded is not None else []
            for A in candidates:
                if m <= nnz:
                    # A lies in x's support, so gathering keeps either part canonical
                    if kind == "C_q_t":
                        idx = A
                    else:
                        in_A = set(A)
                        idx = tuple([i for i in supp if i not in in_A])
                    vals = tuple([value_at[i] for i in idx])
                    part_norm = norms.get(vals)  # never filled unless spreading
                    if part_norm is None:
                        part_norm = space.norm(CoeffVector._canonical(idx, vals))
                        if spreading:
                            norms[vals] = part_norm
                    r = part_norm / norm_x
                else:
                    r = _ratio(space, x, A, kind, norm_x)
                if r > best:
                    best, best_x, best_A, best_key = r, x, A, None
                elif r == best and best_x is not None:
                    # deterministic reduction: lexicographically smallest witness
                    if x_json is None:
                        x_json = x.to_json()
                    if best_key is None:
                        best_key = (x_json if best_x is x else best_x.to_json(), best_A)
                    key = (x_json, A)
                    if key < best_key:
                        best_x, best_A, best_key = x, A, key

    upper = 1.0 if space.contractive_projections else None
    exact = bool(upper is not None and abs(best - upper) <= 1e-12)
    note = "LOWER_BOUND"
    if upper is not None:
        note = ("attains the contractive-projection bound" if exact
                else "upper bound 1 from contractive projections; "
                     "finite-dimensional maximum lies strictly below")
    return ConstantEstimate(kind=kind, value=float(best), witness_x=best_x,
                            witness_A=None if best_A is None else frozenset(best_A),
                            exact=exact, t=t,
                            upper_bound=upper, note=note, mode="sampled")


# ---------------------------------------------------------------------------
# Exact cell search for polyhedral norms
# ---------------------------------------------------------------------------


# cell LPs per block-diagonal solve; HiGHS time and memory grow with the size
# of the block program, so many small solves beat one large one
_LP_BATCH = 200
# cell LPs one search may need, summed over its weakness grid; a larger search
# is refused before any solve
_LP_CAP = 2_000_000
# a vertex whose screened ratio is more than this (relative) below the best so
# far cannot beat it: max |F . y| in numpy and the space's own norm differ
# only by rounding, a few units in the last place
_SCREEN_TOL = 1e-9


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use so that importing
    greedylab does not load scipy.optimize."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _cell_lps(F: np.ndarray, sizes: Iterable[int], dim: int, kind: str
              ) -> Iterator[tuple[frozenset, np.ndarray, tuple, np.ndarray]]:
    """Every (index set, sign cell) pair in search order, as (A, A's mask,
    constraints at t = 1, objectives).  The constraints are a sparse triple
    (rows, cols, values) of ``A_ub x <= b_ub``, a mask of the values that t
    multiplies, and b_ub; the objectives are the rows -sgn * f * mask over
    the functionals f and signs sgn, in that order, without zero ones and
    without repeats by value (in the summing space f . 1_A takes about |A|
    values; in lp:1, +-f can differ only in the sign of a zero).
    """
    ball, eye = np.vstack([F, -F]), np.eye(dim)
    for size in sizes:
        for A_tuple in itertools.combinations(range(1, dim + 1), size):
            A, in_A = frozenset(A_tuple), np.zeros(dim, dtype=bool)
            in_A[[i - 1 for i in A_tuple]] = True
            Fm = F * (in_A if kind == "C_q_t" else ~in_A)
            C = np.stack([-Fm, Fm], axis=1).reshape(-1, dim)[np.repeat(np.any(Fm, axis=1), 2)]
            keys = list(map(tuple, C.tolist()))  # by value: as Python floats, -0.0 == 0.0
            objectives = C[[keys.index(k) for k in dict.fromkeys(keys)]]
            # the rows at sigma = (1, ..., 1): the ball, -x_i <= 0 per entry,
            # and x_j - x_i <= 0 (t x_j at weakness t) for i in A, j not in A
            i_col = np.repeat(np.flatnonzero(in_A), dim - size)
            j_col = np.tile(np.flatnonzero(~in_A), size)
            A_ub = np.vstack([ball, -eye, eye[j_col] - eye[i_col]])
            nz_rows, nz_cols = np.nonzero(A_ub)
            base = A_ub[nz_rows, nz_cols]
            signed = nz_rows >= ball.shape[0]  # sigma multiplies these
            scaled = (nz_rows >= ball.shape[0] + dim) & ~in_A[nz_cols]  # t multiplies these
            b_ub = np.concatenate([np.ones(ball.shape[0]), np.zeros(dim + i_col.size)])
            for signs_rest in itertools.product((1.0, -1.0), repeat=dim - 1):
                sigma = np.array((1.0,) + signs_rest)
                vals = np.where(signed, base * sigma[nz_cols], base)
                yield A, in_A, (nz_rows, nz_cols, vals, scaled, b_ub), objectives


def _solve_block_diagonal(cells: Sequence[tuple], objectives: Sequence[np.ndarray],
                          dim: int, bound: float) -> np.ndarray:
    """Optimal vertices of the given cell LPs, one row each, from one HiGHS solve.

    The LPs are the diagonal blocks of one program with a separable
    objective, so the joint optimum restricted to a block is an optimum of
    that block's LP.
    """
    from scipy.sparse import coo_array

    rows, cols, vals, b_ub = [], [], [], []
    n_rows = 0
    for k, (nz_rows, nz_cols, nz_vals, b) in enumerate(cells):
        rows.append(nz_rows + n_rows)
        cols.append(nz_cols + k * dim)
        vals.append(nz_vals)
        b_ub.append(b)
        n_rows += b.size
    A_ub = coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(n_rows, len(cells) * dim))
    res = linprog(np.concatenate(objectives), A_ub=A_ub, b_ub=np.concatenate(b_ub),
                  bounds=(-bound, bound), method="highs")
    if not res.success:
        raise RuntimeError(f"HiGHS failed on {len(cells)} cell LPs: "
                           f"status {res.status}: {res.message}")
    return res.x.reshape(len(cells), dim)


def _snap_vertices(X: np.ndarray, in_A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cell vertices (rows of X) with the solver fuzz snapped off, so that the
    nonempty index set of row k (``in_A[k]``) is exactly ``t[k]``-greedy.

    Entries up to 1e-11 times the row's peak become zero.  If the largest
    entry outside the set, hi, then has t * hi > lo, the smallest entry of the
    set, every outside entry is multiplied by (lo / (t * hi)) * (1 - 1e-14);
    a set entry snapped to zero gives lo = 0 and zeroes the complement.  Each
    step is one elementwise IEEE operation, so a row has the bits the same
    steps give on Python floats.
    """
    absX = np.abs(X)
    Y = np.where(absX > 1e-11 * absX.max(axis=1, keepdims=True), X, 0.0)
    absY = np.abs(Y)
    lo = np.where(in_A, absY, np.inf).min(axis=1)
    t_hi = t * np.where(in_A, 0.0, absY).max(axis=1)
    shrink = np.divide(lo, t_hi, out=np.zeros_like(lo), where=(t_hi > lo) & (lo > 0.0))
    shrink *= 1.0 - 1e-14
    return np.where((t_hi > lo)[:, None] & ~in_A, Y * shrink[:, None], Y)


def _screened_ratios(Y: np.ndarray, in_A: np.ndarray, F: np.ndarray,
                     kind: str) -> np.ndarray:
    """The ratio of each row of Y, with both norms taken as max |F . y| in
    numpy; -inf for a zero row, which the search skips."""
    part = np.where(in_A if kind == "C_q_t" else ~in_A, Y, 0.0)
    norm = np.abs(Y @ F.T).max(axis=1)
    return np.divide(np.abs(part @ F.T).max(axis=1), norm,
                     out=np.full(len(Y), -np.inf), where=norm > 0.0)


def exact_constant_grid(space: SpaceDescriptor, gap: GapSequence, ts: Sequence[float],
                        dim: int, kind: str = "C_q_t") -> list[ConstantEstimate]:
    """Exact truncated-space constants, one per weakness parameter in ``ts``,
    via per-cell linear programs.

    Requires a dual-functional oracle (norm(z) = max |f . z| over finitely
    many rows f).  For each admissible index set A and sign cell, the
    constraint set {|x| <= 1, A t-greedy for x} is a polytope, and each dual
    functional gives a linear objective; the constant is the maximum ratio
    over the optimal vertices.  The cells are built once, at t = 1, and
    their greedy rows scaled to each t; the distinct cell LPs of every t
    stream, in order, into block-diagonal programs of ``_LP_BATCH`` LPs, one
    HiGHS solve each; a solve that does not reach optimality raises
    RuntimeError.  The vertices of a solve are snapped and their ratios
    screened in numpy; only a vertex that may beat its t's best so far is
    built as a vector and normed by the space, and the first vertex with the
    largest ratio wins.
    """
    if space.dual_functionals is None:
        raise ValueError(f"space {space.name!r} has no dual-functional oracle")
    if kind not in KINDS:
        raise ValueError(f"kind must be C_q_t or C_sq_t, got {kind!r}")
    sizes = gap.admissible_sizes(dim)

    F = np.asarray(space.dual_functionals(dim), dtype=np.float64)
    n_subsets = sum(math.comb(dim, s) for s in sizes)
    n_lp = n_subsets * (2 ** (dim - 1)) * (2 * F.shape[0]) * len(ts)
    if n_lp > _LP_CAP:
        raise ValueError(f"cell search needs {n_lp} linear programs, over the cap {_LP_CAP}")
    for t in ts:
        _check_t(t)

    best = [0.0] * len(ts)
    best_x: list[Optional[CoeffVector]] = [None] * len(ts)
    best_A: list[Optional[frozenset]] = [None] * len(ts)

    table = list(_cell_lps(F, sizes, dim, kind))
    lps = ((k, t, A, in_A, cell, c)
           for k, t in enumerate(ts)
           for A, in_A, (rows, cols, vals, scaled, b_ub), objectives in table
           for cell in [(rows, cols, np.where(scaled, t * vals, vals), b_ub)]
           for c in objectives)
    while batch := list(itertools.islice(lps, _LP_BATCH)):
        ks, t_rows, As, masks, cells, objectives = zip(*batch)
        in_A = np.array(masks)
        Y = _snap_vertices(_solve_block_diagonal(cells, objectives, dim, space.alpha2),
                           in_A, np.array(t_rows))
        screened = _screened_ratios(Y, in_A, F, kind)
        ks = np.array(ks)
        for k in dict.fromkeys(ks.tolist()):
            rows = np.flatnonzero(ks == k)
            running = np.maximum.accumulate(np.maximum(screened[rows], best[k]))
            for i in rows[screened[rows] >= running * (1.0 - _SCREEN_TOL)]:
                x = CoeffVector.from_dense(Y[i])
                nx = space.norm(x)
                if nx <= 0.0:
                    continue
                ratio = _ratio(space, x, As[i], kind, nx)
                if ratio > best[k]:
                    best[k], best_x[k], best_A[k] = ratio, x, As[i]

    return [ConstantEstimate(kind=kind, value=float(b), witness_x=x, witness_A=A,
                             exact=True, t=t, upper_bound=float(b),
                             note="exact polyhedral cell search", mode="lp-cell")
            for t, b, x, A in zip(ts, best, best_x, best_A)]


def exact_constant_polyhedral(space: SpaceDescriptor, gap: GapSequence, t: float,
                              dim: int, kind: str = "C_q_t") -> ConstantEstimate:
    """Exact truncated-space constant at one weakness parameter: the one-t
    case of ``exact_constant_grid``."""
    return exact_constant_grid(space, gap, [t], dim, kind)[0]


# ---------------------------------------------------------------------------
# Transfer between weakness parameters
# ---------------------------------------------------------------------------


def transfer_bound_t_from_s(C_qs: float, s: float, t: float) -> Optional[float]:
    """Bound on the t-constant from the s-constant for t in the window
    s(1 - 1/C_qs) < t < s; returns None when the window condition fails.
    """
    if not (0.0 < t < s <= 1.0):
        raise ValueError(f"need 0 < t < s <= 1, got t={t}, s={s}")
    if C_qs < 1.0:
        raise ValueError(f"constant must be >= 1, got {C_qs}")
    if not s * (1.0 - 1.0 / C_qs) < t:
        return None
    return C_qs * t / (s - C_qs * (s - t))


# ---------------------------------------------------------------------------
# Suppression-one theorem check
# ---------------------------------------------------------------------------


def check_suppression_one_implies_qg(space: SpaceDescriptor, gap: GapSequence,
                                     dim: int, budget: int, seed: int = 0) -> dict:
    """Empirical check that suppression ratios stay below M + 1 with
    M = n1 * alpha1 * alpha2, for greedy sets of every cardinality.

    The conclusion only holds for spaces that are suppression-quasi-greedy
    with constant one at the gap cardinalities, so that pre-condition is
    checked first; its failure is reported, not raised.
    """
    n1 = gap.first()
    M = n1 * space.alpha1 * space.alpha2
    bound = M + 1.0
    rng = np.random.default_rng(seed)

    pre_budget = max(8, budget // 10)
    pre = estimate_quasi_greedy_constant(space, gap, 1.0, dim, pre_budget,
                                         kind="C_sq_t", seed=seed)
    pre_ok = pre.value <= 1.0 + 1e-9
    report = {
        "space": space.name,
        "n1": int(n1),
        "M": float(M),
        "bound": float(bound),
        "precheck_passed": bool(pre_ok),
        "precheck_max_suppression_ratio": float(pre.value),
        "theorem_applicable": bool(pre_ok),
    }
    if not pre_ok and pre.witness_x is not None:
        report["precheck_witness"] = {"x": pre.witness_x.to_json_pairs(),
                                      "A": sorted(pre.witness_A)}

    worst = 0.0
    violations = 0
    trials = 0
    for x in random_vectors(dim, budget, rng):
        nx = space.norm(x)
        if nx <= 0.0:
            continue
        m = int(rng.integers(1, min(dim, len(x)) + 1))
        sel = random_greedy_set(x, m, 1.0, rng)
        ratio = space.norm(x.drop(sel.indices)) / nx
        worst = max(worst, ratio)
        if ratio > bound + 1e-9:
            violations += 1
        trials += 1
    report.update({
        "trials": trials,
        "max_ratio": float(worst),
        "margin": float(bound - worst),
        "violations": int(violations),
    })
    return report


# ---------------------------------------------------------------------------
# Bounded-gap partition bound
# ---------------------------------------------------------------------------


_PartitionEvaluation = namedtuple("_PartitionEvaluation", [
    "branch", "cardinality", "n_k", "fields", "norm_x", "proj_norm", "crude", "l",
    "blocks", "completion", "realized", "in_intervals"])


def _partition_evaluation(space: SpaceDescriptor, x: CoeffVector, A: Iterable[int],
                          t: float, gap: GapSequence) -> _PartitionEvaluation:
    """Execute the interval partition that proves the bounded-gap bound and
    keep its norms: everything in the bound that does not depend on C_qt or K.

    A must be t-greedy for x with n_k <= |A| < l * n_k for a stored gap term
    n_k (below n_1 the crude coordinate bound n_1 * alpha1 * alpha2 applies).
    ``fields`` holds the report's branch details as pairs, ``blocks`` holds
    (i, |P_block x|, |P_I x|) per full block i, and ``completion`` the same
    two norms for A_1 completed, plus |P_{A_1} x|.
    """
    l = gap.bound_l
    if l is None:
        raise ValueError("the partition bound needs a gap sequence with bound_l")
    A_sorted = tuple(sorted(_index_set(A)))
    if not is_t_greedy(x, A_sorted, t):
        raise ValueError("A is not a t-greedy set for x")
    nA = len(A_sorted)
    norm_x = space.norm(x)
    proj_norm = space.norm(projection(x, A_sorted))
    realized: list[float] = []
    in_intervals: list[bool] = []
    n1 = gap.first()

    def interval_step(block: tuple[int, ...]) -> tuple[float, float]:
        """|P_block x| and |P_I x| for the interval I spanned by the block,
        which must be t-greedy for P_I x."""
        piece = projection(x, range(block[0], block[-1] + 1))
        in_intervals.append(is_t_greedy(piece, block, t))
        n_block, n_piece = space.norm(projection(x, block)), space.norm(piece)
        if n_piece > 0:
            realized.append(float(n_block / n_piece))
        return n_block, n_piece

    n_k = completion = None
    blocks = []
    if nA < n1:
        branch, fields = "small_cardinality", (("n1", int(n1)),)
    else:
        members = gap.members_up_to(nA)
        if not members:
            raise ValueError("cardinality window violated: no gap term at or below |A|")
        n_k = members[-1]
        if not (n_k <= nA < l * n_k):
            raise ValueError(f"cardinality window violated: need n_k <= |A| < l*n_k, "
                             f"got n_k={n_k}, |A|={nA}, l={l}")
        if nA == n_k:
            # A itself is a greedy set of an admissible cardinality
            branch, fields = "single_block", (("n_k", int(n_k)), ("j", 1))
            if norm_x > 0:
                realized.append(float(proj_norm / norm_x))
        else:
            # ordered partition: the first block carries the remainder, the
            # rest have size n_k
            j = -(-nA // n_k)
            r0 = nA - (j - 1) * n_k
            parts = [A_sorted[:r0]] + [A_sorted[r0 + (i - 1) * n_k: r0 + i * n_k]
                                       for i in range(1, j)]
            branch, fields = "partition", (("n_k", int(n_k)), ("j", int(j)),
                                           ("sizes", [len(b) for b in parts]))
            blocks = [(i, *interval_step(block)) for i, block in enumerate(parts, start=1)
                      if i > 1 or r0 == n_k]
            if r0 < n_k:
                # complete A_1 by the first n_k - |A_1| indices of A minus A_1
                completion = (*interval_step(A_sorted[:n_k]),
                              space.norm(projection(x, parts[0])))
                fields += (("completion_size", n_k - r0),)
    return _PartitionEvaluation(branch, nA, n_k, fields, norm_x, proj_norm,
                                n1 * space.alpha1 * space.alpha2, l, tuple(blocks),
                                completion, realized, all(in_intervals))


def _partition_checks(ev: _PartitionEvaluation, C_qt: float, K: float) -> list[BoundCheck]:
    """The inequalities of the bounded-gap bound at constants C_qt and K."""
    norm_x, proj_norm, CK2 = ev.norm_x, ev.proj_norm, 2.0 * C_qt * K
    checks = []
    if ev.branch != "partition":
        checks.append(BoundCheck(ev.branch, proj_norm,
                                 (CK2 if ev.n_k is not None else ev.crude) * norm_x))
    for i, n_block, n_piece in ev.blocks:
        checks += [BoundCheck(f"block_ratio_{i}", n_block, C_qt * n_piece),
                   BoundCheck(f"interval_{i}", n_piece, 2.0 * K * norm_x),
                   BoundCheck(f"block_bound_{i}", n_block, CK2 * norm_x)]
    if ev.completion is not None:
        n_filled, n_piece1, n_first = ev.completion
        checks += [BoundCheck("completion_prefix", n_first, K * n_filled),
                   BoundCheck("completion_ratio", n_filled, C_qt * n_piece1),
                   BoundCheck("interval_1", n_piece1, 2.0 * K * norm_x),
                   BoundCheck("first_block_bound", n_first, CK2 * K * norm_x)]
    factor = CK2 * (ev.l - 1.0 + K)
    if ev.n_k is not None:
        checks.append(BoundCheck("partition_bound", proj_norm, factor * norm_x))
    return checks + [BoundCheck("global_bound", proj_norm, max(ev.crude, factor) * norm_x)]


def bounded_gap_projection_bound(space: SpaceDescriptor, C_qt: float, K: float,
                                 x: CoeffVector, A: Iterable[int], t: float,
                                 gap: GapSequence) -> dict:
    """Evaluate |P_A(x)| against 2 * C_qt * K * (l - 1 + K) * |x|, with l the
    gap sequence's own ``bound_l``, by executing the interval partition that
    proves it (``_partition_evaluation``), reporting every intermediate bound.
    """
    ev = _partition_evaluation(space, x, A, t, gap)
    report = {"branch": ev.branch, "cardinality": ev.cardinality, **dict(ev.fields),
              "norm_x": float(ev.norm_x), "proj_norm": float(ev.proj_norm),
              "realized_ratios": ev.realized}
    if ev.branch == "partition":
        report["blocks_t_greedy_in_intervals"] = ev.in_intervals
    bound_checks = [c.to_json() for c in _partition_checks(ev, C_qt, K)]
    return {**report, "bound_checks": bound_checks,
            "ok": ev.in_intervals and all(c["ok"] for c in bound_checks)}
