"""Greedy-type constant estimation on finite truncations, plus the
constant-level bounds that relate them.

Estimates are reported as (lower bound witness, optional analytic upper
bound) pairs; a finite truncation never certifies an infinite-dimensional
supremum.  For polyhedral norms an exact cell search is available: once a
sign pattern is fixed, the t-greedy condition is a system of linear
inequalities, so each (index set, sign cell, dual functional) triple is a
small linear program and the truncated-space constant is the maximum over
finitely many of them.  The cell programs of one constant share no variable,
so they are stacked into block-diagonal programs and solved together.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional

import numpy as np

from .coeffspace import (CoeffVector, GapSequence, SpaceDescriptor, projection,
                         random_vectors)
from .estimates import BoundCheck, ConstantEstimate
from .greedy import (enumerate_t_greedy_sets, is_t_greedy, one_greedy_set,
                     random_greedy_set)

__all__ = [
    "estimate_quasi_greedy_constant",
    "exact_constant_polyhedral",
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


def structured_witnesses(space: SpaceDescriptor, dim: int) -> Iterator[CoeffVector]:
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


def _pad_to_cardinality(x: CoeffVector, m: int, dim: int) -> Optional[frozenset]:
    """Support plus the smallest unused indices within [1, dim], if m fits."""
    supp = set(x.support())
    extra = [i for i in range(1, dim + 1) if i not in supp]
    if len(supp) + len(extra) < m:
        return None
    return frozenset(sorted(supp) + extra[: m - len(supp)])


def _greedy_sets_for(x: CoeffVector, m: int, t: float, cap: int) -> list[frozenset]:
    """Candidate t-greedy sets of cardinality m for x (all of them when they fit)."""
    if m <= len(x):
        result = enumerate_t_greedy_sets(x, m, t, cap=cap)
        sets = [sel.indices for sel in result.selections]
        if result.overflow:
            sets.append(one_greedy_set(x, m, t, "lowest").indices)
            sets.append(one_greedy_set(x, m, t, "highest").indices)
        return list(dict.fromkeys(sets))
    return []


def _ratio(space: SpaceDescriptor, x: CoeffVector, A: frozenset, kind: str,
           norm_x: float) -> float:
    if kind == "C_sq_t":
        return space.norm(x.drop(A)) / norm_x
    return space.norm(projection(x, A)) / norm_x


# ---------------------------------------------------------------------------
# Sampling estimator
# ---------------------------------------------------------------------------


def estimate_quasi_greedy_constant(space: SpaceDescriptor, gap: GapSequence, t: float,
                                   dim: int, budget: int, kind: str = "C_q_t",
                                   seed: int = 0, enumeration_cap: int = 128,
                                   ) -> ConstantEstimate:
    """Max of |P_A(x)| / |x| (or the suppression ratio |x - P_A(x)| / |x|)
    over search samples x and all t-greedy sets A with |A| in the gap
    sequence, capped at dim.

    Search order: structured sign-cancellation witnesses, then unit-ball
    extreme points where an oracle exists, then random samples.  The value is
    a lower bound unless a contractivity certificate pins it.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    sizes = gap.members_up_to(dim)
    if not sizes:
        raise ValueError("no admissible cardinality: gap sequence has no member <= dim")
    if kind not in ("C_q_t", "C_sq_t"):
        raise ValueError(f"kind must be C_q_t or C_sq_t, got {kind!r}")

    rng = np.random.default_rng(seed)
    pool: list[CoeffVector] = list(structured_witnesses(space, dim))
    if space.extreme_points is not None and dim <= 8:
        pool.extend(itertools.islice(
            space.extreme_points(tuple(range(1, dim + 1))), 512))
    pool.extend(random_vectors(dim, budget, rng))

    best = 0.0
    best_x: Optional[CoeffVector] = None
    best_A: Optional[frozenset] = None
    best_key: Optional[tuple] = None  # incumbent's tie-break key, built on its first tie

    for x in pool:
        if not x:
            continue
        norm_x = space.norm(x)
        if norm_x <= 0.0:
            continue
        nnz = len(x)
        x_json: Optional[str] = None  # x's tie-break encoding, built on its first tie
        for m in sizes:
            if m <= nnz:
                candidates = _greedy_sets_for(x, m, t, enumeration_cap)
            else:
                padded = _pad_to_cardinality(x, m, dim)
                candidates = [padded] if padded is not None else []
            for A in candidates:
                r = _ratio(space, x, A, kind, norm_x)
                if r > best:
                    best, best_x, best_A, best_key = r, x, A, None
                elif r == best and best_x is not None:
                    # deterministic reduction: lexicographically smallest witness
                    if x_json is None:
                        x_json = x.to_json()
                    if best_key is None:
                        best_json = x_json if best_x is x else best_x.to_json()
                        best_key = (best_json, tuple(sorted(best_A)))
                    key = (x_json, tuple(sorted(A)))
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
                            witness_A=best_A, exact=exact, t=t,
                            upper_bound=upper, note=note, mode="sampled")


# ---------------------------------------------------------------------------
# Exact cell search for polyhedral norms
# ---------------------------------------------------------------------------


def _certified_witness(x: CoeffVector, A: frozenset, t: float) -> CoeffVector:
    """Snap solver fuzz so the witness passes the exact t-greedy test."""
    vals = dict(x.pairs())
    peak = max((abs(v) for v in vals.values()), default=0.0)
    if peak == 0.0:
        return x
    vals = {i: v for i, v in vals.items() if abs(v) > 1e-11 * peak}
    outside = {i: v for i, v in vals.items() if i not in A}
    if outside:
        # an A-index with a (snapped) zero coefficient forces the whole
        # complement to zero
        lo = min((abs(vals[i]) for i in A if i in vals), default=0.0)
        if any(i not in vals for i in A):
            lo = 0.0
        hi = max(abs(v) for v in outside.values())
        if t * hi > lo and hi > 0.0:
            shrink = (lo / (t * hi)) * (1.0 - 1e-14) if lo > 0.0 else 0.0
            for i in outside:
                vals[i] = vals[i] * shrink
    return CoeffVector.from_pairs((i, v) for i, v in vals.items() if v != 0.0)


# cell LPs per block-diagonal solve: one solve per constant up to dimension 4,
# bounded memory beyond
_LP_BATCH = 4096


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use so that importing
    greedylab does not load scipy.optimize."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _cell_lps(F: np.ndarray, sizes: Iterable[int], dim: int, t: float, kind: str
              ) -> Iterator[tuple[frozenset, tuple, np.ndarray]]:
    """Every cell LP in search order, as (A, constraints, objective).

    The constraints of one (index set, sign cell) pair are shared by its
    2 * |F| objectives, as a sparse triple (rows, cols, values) plus the
    right-hand side of ``A_ub x <= b_ub``.
    """
    ball = np.vstack([F, -F])
    for size in sizes:
        for A_tuple in itertools.combinations(range(1, dim + 1), size):
            A = frozenset(A_tuple)
            mask = np.zeros(dim)
            for i in A_tuple:
                mask[i - 1] = 1.0
            obj_mask = mask if kind == "C_q_t" else 1.0 - mask
            outside = [j for j in range(1, dim + 1) if j not in A]
            for signs_rest in itertools.product((1.0, -1.0), repeat=dim - 1):
                sigma = np.array((1.0,) + signs_rest)
                rows = [-np.diag(sigma)]  # sigma_i x_i >= 0
                if outside:
                    greedy = np.zeros((len(A_tuple) * len(outside), dim))
                    r = 0
                    for i in A_tuple:
                        for j in outside:
                            greedy[r, j - 1] = t * sigma[j - 1]
                            greedy[r, i - 1] -= sigma[i - 1]
                            r += 1
                    rows.append(greedy)
                A_ub = np.vstack([ball] + rows)
                b_ub = np.concatenate([np.ones(ball.shape[0]),
                                       np.zeros(A_ub.shape[0] - ball.shape[0])])
                nz_rows, nz_cols = np.nonzero(A_ub)
                cell = (nz_rows, nz_cols, A_ub[nz_rows, nz_cols], b_ub)
                for f in F:
                    cvec = f * obj_mask
                    if not np.any(cvec):
                        continue
                    for sgn in (1.0, -1.0):
                        yield A, cell, -sgn * cvec


def _solve_block_diagonal(lps: list, dim: int, bound: float) -> np.ndarray:
    """Optimal vertices of the given cell LPs, one row each, from one HiGHS solve.

    The LPs are the diagonal blocks of one program with a separable
    objective, so the joint optimum restricted to a block is an optimum of
    that block's LP.
    """
    from scipy.sparse import coo_array

    rows, cols, vals, b_ub = [], [], [], []
    n_rows = 0
    for k, (_, (nz_rows, nz_cols, nz_vals, b), _) in enumerate(lps):
        rows.append(nz_rows + n_rows)
        cols.append(nz_cols + k * dim)
        vals.append(nz_vals)
        b_ub.append(b)
        n_rows += b.size
    A_ub = coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(n_rows, len(lps) * dim))
    res = linprog(np.concatenate([c for _, _, c in lps]), A_ub=A_ub,
                  b_ub=np.concatenate(b_ub), bounds=(-bound, bound), method="highs")
    if not res.success:
        raise RuntimeError(f"HiGHS failed on {len(lps)} cell LPs: "
                           f"status {res.status}: {res.message}")
    return res.x.reshape(len(lps), dim)


def exact_constant_polyhedral(space: SpaceDescriptor, gap: GapSequence, t: float,
                              dim: int, kind: str = "C_q_t",
                              lp_cap: int = 2_000_000) -> ConstantEstimate:
    """Exact truncated-space constant via per-cell linear programs.

    Requires a dual-functional oracle (norm(z) = max |f . z| over finitely
    many rows f).  For each admissible index set A and sign cell, the
    constraint set {|x| <= 1, A t-greedy for x} is a polytope, and each dual
    functional gives a linear objective; the constant is the maximum LP value.
    The cell LPs are solved ``_LP_BATCH`` at a time as one block-diagonal
    program; a solve that does not reach optimality raises RuntimeError.
    """
    if space.dual_functionals is None:
        raise ValueError(f"space {space.name!r} has no dual-functional oracle")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"weakness parameter t must lie in (0, 1], got {t}")
    if kind not in ("C_q_t", "C_sq_t"):
        raise ValueError(f"kind must be C_q_t or C_sq_t, got {kind!r}")
    sizes = [s for s in gap.members_up_to(dim)]
    if not sizes:
        raise ValueError("no admissible cardinality: gap sequence has no member <= dim")

    F = np.asarray(space.dual_functionals(dim), dtype=np.float64)
    n_subsets = sum(math.comb(dim, s) for s in sizes)
    n_lp = n_subsets * (2 ** (dim - 1)) * (2 * F.shape[0])
    if n_lp > lp_cap:
        raise ValueError(f"cell search needs {n_lp} linear programs, over the cap {lp_cap}")

    best = 0.0
    best_x: Optional[CoeffVector] = None
    best_A: Optional[frozenset] = None

    lps = _cell_lps(F, sizes, dim, t, kind)
    while batch := list(itertools.islice(lps, _LP_BATCH)):
        vertices = _solve_block_diagonal(batch, dim, space.alpha2)
        for (A, _, _), vertex in zip(batch, vertices):
            x = _certified_witness(CoeffVector.from_dense(vertex), A, t)
            nx = space.norm(x)
            if nx <= 0.0:
                continue
            ratio = _ratio(space, x, A, kind, nx)
            if ratio > best:
                best, best_x, best_A = ratio, x, A

    return ConstantEstimate(kind=kind, value=float(best), witness_x=best_x,
                            witness_A=best_A, exact=True, t=t, upper_bound=float(best),
                            note="exact polyhedral cell search", mode="lp-cell")


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
    members = gap.members_up_to(dim)
    n1 = members[0] if members else gap.first()
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
        if not x:
            continue
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


def bounded_gap_projection_bound(space: SpaceDescriptor, C_qt: float, K: float,
                                 l: int, x: CoeffVector, A: Iterable[int], t: float,
                                 gap: GapSequence) -> dict:
    """Evaluate |P_A(x)| against 2 * C_qt * K * (l - 1 + K) * |x| by executing
    the interval partition that proves it, reporting every intermediate bound.

    A must be t-greedy for x with n_k <= |A| < l * n_k for a stored gap term
    n_k (below n_1 the crude coordinate bound n_1 * alpha1 * alpha2 applies).
    """
    if l <= 1:
        raise ValueError(f"gap bound l must exceed 1, got {l}")
    A_sorted = tuple(sorted(set(int(i) for i in A)))
    if not is_t_greedy(x, A_sorted, t):
        raise ValueError("A is not a t-greedy set for x")
    nA = len(A_sorted)
    norm_x = space.norm(x)
    proj_norm = space.norm(projection(x, A_sorted))
    checks: list[BoundCheck] = []
    members = gap.members_up_to(nA)
    n1 = gap.first()

    global_rhs = max(n1 * space.alpha1 * space.alpha2,
                     2.0 * C_qt * K * (l - 1.0 + K)) * norm_x

    if nA < n1:
        checks.append(BoundCheck("small_cardinality",
                                 proj_norm, n1 * space.alpha1 * space.alpha2 * norm_x))
        checks.append(BoundCheck("global_bound", proj_norm, global_rhs))
        return {"branch": "small_cardinality", "cardinality": nA, "n1": int(n1),
                "norm_x": float(norm_x), "proj_norm": float(proj_norm),
                "realized_ratios": [],
                "bound_checks": [c.to_json() for c in checks],
                "ok": all(c.ok for c in checks)}

    if not members:
        raise ValueError("cardinality window violated: no gap term at or below |A|")
    n_k = members[-1]
    if not (n_k <= nA < l * n_k):
        raise ValueError(f"cardinality window violated: need n_k <= |A| < l*n_k, "
                         f"got n_k={n_k}, |A|={nA}, l={l}")

    final_rhs = 2.0 * C_qt * K * (l - 1.0 + K) * norm_x
    if nA == n_k:
        # A itself is a greedy set of an admissible cardinality
        checks.append(BoundCheck("single_block", proj_norm, 2.0 * C_qt * K * norm_x))
        checks.append(BoundCheck("partition_bound", proj_norm, final_rhs))
        checks.append(BoundCheck("global_bound", proj_norm, global_rhs))
        return {"branch": "single_block", "cardinality": nA, "n_k": int(n_k), "j": 1,
                "norm_x": float(norm_x), "proj_norm": float(proj_norm),
                "realized_ratios": [float(proj_norm / norm_x)] if norm_x > 0 else [],
                "bound_checks": [c.to_json() for c in checks],
                "ok": all(c.ok for c in checks)}

    # ordered partition: first block carries the remainder, the rest have size n_k
    j = -(-nA // n_k)
    r0 = nA - (j - 1) * n_k
    blocks = [A_sorted[:r0]]
    for i in range(1, j):
        blocks.append(A_sorted[r0 + (i - 1) * n_k: r0 + i * n_k])

    partition = {"n_k": int(n_k), "j": int(j), "sizes": [len(b) for b in blocks]}
    greedy_within = True
    realized: list[float] = []

    for i, block in enumerate(blocks, start=1):
        if i == 1 and r0 < n_k:
            continue
        interval = tuple(range(block[0], block[-1] + 1))
        piece = projection(x, interval)
        greedy_within &= is_t_greedy(piece, block, t)
        n_piece = space.norm(piece)
        n_block = space.norm(projection(x, block))
        if n_piece > 0:
            realized.append(float(n_block / n_piece))
        checks.append(BoundCheck(f"block_ratio_{i}", n_block, C_qt * n_piece))
        checks.append(BoundCheck(f"interval_{i}", n_piece, 2.0 * K * norm_x))
        checks.append(BoundCheck(f"block_bound_{i}", n_block, 2.0 * C_qt * K * norm_x))

    if r0 < n_k:
        completion = A_sorted[r0: r0 + (n_k - r0)]  # first n_k - |A_1| of A minus A_1
        filled = blocks[0] + completion
        interval1 = tuple(range(filled[0], filled[-1] + 1))
        piece1 = projection(x, interval1)
        greedy_within &= is_t_greedy(piece1, filled, t)
        n_first = space.norm(projection(x, blocks[0]))
        n_filled = space.norm(projection(x, filled))
        n_piece1 = space.norm(piece1)
        if n_piece1 > 0:
            realized.append(float(n_filled / n_piece1))
        checks.append(BoundCheck("completion_prefix", n_first, K * n_filled))
        checks.append(BoundCheck("completion_ratio", n_filled, C_qt * n_piece1))
        checks.append(BoundCheck("interval_1", n_piece1, 2.0 * K * norm_x))
        checks.append(BoundCheck("first_block_bound", n_first,
                                 2.0 * C_qt * K * K * norm_x))
        partition["completion_size"] = len(completion)

    checks.append(BoundCheck("partition_bound", proj_norm, final_rhs))
    checks.append(BoundCheck("global_bound", proj_norm, global_rhs))
    return {"branch": "partition", "cardinality": nA, **partition,
            "norm_x": float(norm_x), "proj_norm": float(proj_norm),
            "realized_ratios": realized,
            "blocks_t_greedy_in_intervals": bool(greedy_within),
            "bound_checks": [c.to_json() for c in checks],
            "ok": bool(greedy_within) and all(c.ok for c in checks)}
