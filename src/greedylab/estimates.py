"""Constant estimates: a lower-bound witness plus optional analytic upper bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coeffspace import CoeffVector, SpaceDescriptor, projection

__all__ = ["ConstantEstimate", "BoundCheck"]

# recognized estimate kinds
KINDS = ("C_q_t", "C_sq_t")


def _ratio(space: SpaceDescriptor, x: CoeffVector, A: frozenset, kind: str,
           norm_x: float) -> float:
    """|P_A x| / |x| for C_q_t, |x - P_A x| / |x| for C_sq_t; norm_x is |x|."""
    if kind == "C_sq_t":
        return space.norm(x.drop(A)) / norm_x
    return space.norm(projection(x, A)) / norm_x


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs with the achieved margin rhs - lhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 1e-9 * max(1.0, abs(self.rhs))

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": float(self.lhs), "rhs": float(self.rhs),
                "margin": float(self.margin), "ok": self.ok}


@dataclass(frozen=True)
class ConstantEstimate:
    """Lower-bound witness (x, A, ratio) for one of the greedy-type constants.

    ``value`` is always the ratio achieved by the stored witness; finite
    truncations certify lower bounds only, so ``exact`` is set only when the
    search provably attains the truncated-space supremum (polyhedral cell
    search, or a contractivity certificate met by the witness).  An analytic
    ``upper_bound`` is attached where the catalogue knows one.
    """

    kind: str
    value: float
    witness_x: Optional[CoeffVector]
    witness_A: Optional[frozenset]
    exact: bool
    t: Optional[float] = None
    upper_bound: Optional[float] = None
    note: str = ""
    mode: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimate kind {self.kind!r}")

    def revalidate(self, space: SpaceDescriptor) -> bool:
        """True when the stored value matches the witness ratio recomputed from scratch."""
        ratio = 0.0
        if self.witness_x is not None and self.witness_A is not None:
            nx = space.norm(self.witness_x)
            if nx != 0.0:
                ratio = _ratio(space, self.witness_x, self.witness_A, self.kind, nx)
        return abs(ratio - self.value) <= 1e-9 * max(1.0, self.value)

    def to_report(self) -> dict:
        report = {
            "kind": self.kind,
            "value": float(self.value),
            "exact": self.exact,
            "witness": {
                "x": self.witness_x.to_json_pairs() if self.witness_x is not None else None,
                "A": sorted(self.witness_A) if self.witness_A is not None else None,
            },
            "bound_checks": [],
        }
        if self.t is not None:
            report["t"] = float(self.t)
        if self.upper_bound is not None:
            report["upper_bound"] = float(self.upper_bound)
            report["bound_checks"].append(
                BoundCheck("upper_bound", self.value, self.upper_bound).to_json())
        if self.note:
            report["note"] = self.note
        if self.mode:
            report["mode"] = self.mode
        return report
