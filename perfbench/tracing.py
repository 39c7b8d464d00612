"""Layer tracing from outside the program.

Every traced layer boundary is a public greedylab function, wrapped where its
caller looks the name up (a module global, or an attribute of ``CoeffVector``)
for the length of one traced pass and restored afterwards.  Each call records
a span (name, parent span, start, end) in flat arrays held in memory; the
spans of one pass share a pass id, and the arrays are written out once, when
the run ends.  A few wrappers also count work read off return values, such as
solver statuses, enumerated sets or walked classes.

``*_s`` metrics are the time covered by the outermost spans of a group (a
span nested in another span of the same group is not counted twice);
``*_self_s`` metrics subtract the time covered by child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

_EXPERIMENTS = ("divergence_rows", "constants_table", "transfer_table",
                "bounded_gap_trials", "suppression_rows", "perturb_audit")
_ALGEBRA = ("__add__", "__sub__", "__neg__", "scale")
_NORMS = ("summing_norm", "lp_norm", "sup_norm", "weighted_lp_norm")
_SUITES = ("lemma_perturbation_suite", "padding_suite", "crude_bound_suite")

# span name -> every (owner, attribute) where a caller looks the function up;
# an owner "module:Class" is a class attribute
SITES: dict[str, list[tuple[str, str]]] = {
    **{f"experiments.{f}": [("greedylab.cli", f)] for f in _EXPERIMENTS},
    "constants.linprog": [("greedylab.constants", "linprog")],
    "constants.exact_constant_polyhedral": [
        ("greedylab.experiments", "exact_constant_polyhedral")],
    "constants.estimate_quasi_greedy_constant": [
        ("greedylab.experiments", "estimate_quasi_greedy_constant"),
        ("greedylab.constants", "estimate_quasi_greedy_constant")],
    "constants.bounded_gap_projection_bound": [
        ("greedylab.experiments", "bounded_gap_projection_bound")],
    "constants.check_suppression_one_implies_qg": [
        ("greedylab.experiments", "check_suppression_one_implies_qg")],
    "coeffspace.CoeffVector.__init__": [("greedylab.coeffspace:CoeffVector", "__init__")],
    "coeffspace.CoeffVector.restrict": [("greedylab.coeffspace:CoeffVector", "restrict")],
    "coeffspace.CoeffVector.drop": [("greedylab.coeffspace:CoeffVector", "drop")],
    **{f"coeffspace.CoeffVector.{m}": [("greedylab.coeffspace:CoeffVector", m)]
       for m in _ALGEBRA},
    **{f"coeffspace.{f}": [("greedylab.coeffspace", f)] for f in _NORMS},
    "coeffspace.random_vectors": [
        (mod, "random_vectors") for mod in ("greedylab.experiments", "greedylab.constants",
                                            "greedylab.perturb", "greedylab.coeffspace")],
    "greedy.one_greedy_set": [
        (mod, "one_greedy_set") for mod in ("greedylab.greedy", "greedylab.constants",
                                            "greedylab.perturb")],
    "greedy.enumerate_t_greedy_sets": [("greedylab.constants", "enumerate_t_greedy_sets")],
    "greedy.is_t_greedy": [
        (mod, "is_t_greedy") for mod in ("greedylab.greedy", "greedylab.constants",
                                         "greedylab.perturb")],
    **{f"counterexample.{f}": [("greedylab.counterexample", f)]
       for f in ("divergence_experiment", "enumerate_selection_classes",
                 "selection_norm", "phi_lower_bound")},
    **{f"perturb.{f}": [("greedylab.perturb", f)]
       for f in ("perturb_to_finite_support", "padding_set_construction")},
    **{f"perturb.{f}": [("greedylab.experiments", f)]
       for f in _SUITES + ("equivalence_audit",)},
    "reporting.write_csv": [("greedylab.cli", "write_csv")],
    "reporting.write_json": [("greedylab.cli", "write_json")],
    "reporting.parallel_map": [("greedylab.perturb", "parallel_map"),
                               ("greedylab.reporting", "parallel_map")],
}
MAP_ITEM = "reporting.parallel_map.item"
ITERATORS = {"coeffspace.random_vectors": "coeffspace.samples_drawn"}


def _count_lp(counts: Counter, res, args) -> None:
    counts[f"constants.lp_status.{int(res.status)}"] += 1
    counts["constants.lp_iterations"] += int(getattr(res, "nit", 0) or 0)


def _count_enumeration(counts: Counter, res, args) -> None:
    counts["greedy.sets_enumerated"] += len(res.selections)
    counts["greedy.enumerate_overflows"] += int(bool(res.overflow))


def _count_classes(counts: Counter, res, args) -> None:
    counts["counterexample.classes_walked"] += len(res[0])


def _count_rows(counts: Counter, res, args) -> None:
    counts["counterexample.rows"] += len(res["rows"])
    counts["counterexample.rows_inexact"] += sum(1 for r in res["rows"] if not r["exact"])


def _count_suite(counts: Counter, res, args) -> None:
    counts["perturb.trials"] += int(res["trials"])
    counts["perturb.failures"] += int(res["failures"])


def _count_audit(counts: Counter, res, args) -> None:
    counts["perturb.trials"] += int(res.get("trials", 0))
    counts["perturb.failures"] += 0 if res.get("satisfied", True) else 1


def _count_trials(counts: Counter, res, args) -> None:
    counts["experiments.trials"] += int(res["json"]["trials"])


def _count_bytes(counts: Counter, res, args) -> None:
    counts["reporting.bytes_written"] += Path(args[0]).stat().st_size


HOOKS: dict[str, Callable] = {
    "constants.linprog": _count_lp,
    "greedy.enumerate_t_greedy_sets": _count_enumeration,
    "counterexample.enumerate_selection_classes": _count_classes,
    "counterexample.divergence_experiment": _count_rows,
    **{f"perturb.{f}": _count_suite for f in _SUITES},
    "perturb.equivalence_audit": _count_audit,
    "experiments.bounded_gap_trials": _count_trials,
    "reporting.write_csv": _count_bytes,
    "reporting.write_json": _count_bytes,
}


def owner_of(spec: str):
    """The module, or the class for a "module:Class" spec, that holds a site."""
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def site_object(owner, attr: str):
    """What a caller finds at a site (a class's own attribute, not an inherited one)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Spans and counters of the traced passes of one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_starts: list[int] = []  # first span index of each traced pass
        self.counts: Counter = Counter()  # counters of the current pass
        self.pass_counts: list[Counter] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_iter(self, name: str, fn: Callable, count_key: str) -> Callable:
        """A generator function wrapped so that each item drawn is one span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    ends[sid] = clock()
                    starts[sid] = t0
                    stack.pop()
                counts[count_key] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrapper(self, name: str, original: Callable) -> Callable:
        if name in ITERATORS:
            return self.span_iter(name, original, ITERATORS[name])
        if name == "reporting.parallel_map":
            def mapped(fn, items):
                return original(self.span(MAP_ITEM, fn), items)
            return self.span(name, mapped)
        return self.span(name, original, HOOKS.get(name))

    @contextmanager
    def installed(self):
        """Patch every site for the duration of one traced pass."""
        self.pass_starts.append(len(self.start))
        self.counts.clear()
        try:
            for name, sites in SITES.items():
                for spec, attr in sites:
                    owner = owner_of(spec)
                    original = site_object(owner, attr)
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._wrapper(name, original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)
            self.pass_counts.append(Counter(self.counts))

    def pass_view(self, index: int) -> "PassSpans":
        lo = self.pass_starts[index]
        hi = (self.pass_starts[index + 1] if index + 1 < len(self.pass_starts)
              else len(self.start))
        return PassSpans(self, lo, hi)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64),
                 pass_start=np.array(self.pass_starts, dtype=np.int64))


class PassSpans:
    """Span aggregates of one traced pass."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self.name = np.array(tracer.name[lo:hi], dtype=np.int64)
        parent = np.array(tracer.parent[lo:hi], dtype=np.int64)
        self.parent = np.where(parent >= 0, parent - lo, -1)
        self.duration = (np.array(tracer.end[lo:hi], dtype=np.float64)
                         - np.array(tracer.start[lo:hi], dtype=np.float64))
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.duration[has_parent],
                                 minlength=self.name.size)
        self.self_time = self.duration - child_time

    def _mask(self, names: Iterable[str]) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.name, ids)

    def calls(self, *names: str) -> int:
        return int(self._mask(names).sum())

    def total(self, *names: str) -> float:
        """Time covered by the group's spans, nested group spans counted once."""
        inside = self._mask(names)
        parent_inside = np.zeros_like(inside)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        return float(self.duration[inside & ~parent_inside].sum())

    def self_time_of(self, *names: str) -> float:
        return float(self.self_time[self._mask(names)].sum())


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _g(prefix: str, names: Iterable[str]) -> tuple[str, ...]:
    return tuple(f"{prefix}.{n}" for n in names)


_EXPERIMENT_SPANS = _g("experiments", _EXPERIMENTS)
_NORM_SPANS = _g("coeffspace", _NORMS)
_PROJECT_SPANS = ("coeffspace.CoeffVector.restrict", "coeffspace.CoeffVector.drop")
_ALGEBRA_SPANS = _g("coeffspace.CoeffVector", _ALGEBRA)
_BUILD = "coeffspace.CoeffVector.__init__"
_WRITES = ("reporting.write_csv", "reporting.write_json")

# (metric, value from (spans of the pass, counters of the pass)); units are
# those of BENCHMARK.json, and reporting.digest_changes and trace.overhead_ratio
# are added by the runner
LAYER_METRICS: list[tuple[str, Callable[[PassSpans, Counter], float]]] = [
    ("constants.lp_calls", lambda s, c: s.calls("constants.linprog")),
    ("constants.lp_s", lambda s, c: s.total("constants.linprog")),
    ("constants.lp_failed",
     lambda s, c: s.calls("constants.linprog") - c["constants.lp_status.0"]),
    ("constants.lp_iterations", lambda s, c: c["constants.lp_iterations"]),
    ("constants.lp_per_constant",
     lambda s, c: _ratio(s.calls("constants.linprog"),
                         s.calls("constants.exact_constant_polyhedral"))),
    ("constants.exact_self_s",
     lambda s, c: s.self_time_of("constants.exact_constant_polyhedral")),
    ("constants.estimate_calls",
     lambda s, c: s.calls("constants.estimate_quasi_greedy_constant")),
    ("constants.estimate_self_s",
     lambda s, c: s.self_time_of("constants.estimate_quasi_greedy_constant")),
    ("constants.partition_calls",
     lambda s, c: s.calls("constants.bounded_gap_projection_bound")),
    ("constants.partition_self_s",
     lambda s, c: s.self_time_of("constants.bounded_gap_projection_bound")),
    ("constants.suppression_self_s",
     lambda s, c: s.self_time_of("constants.check_suppression_one_implies_qg")),
    ("experiments.self_s", lambda s, c: s.self_time_of(*_EXPERIMENT_SPANS)),
    ("experiments.partition_evals_per_trial",
     lambda s, c: _ratio(s.calls("constants.bounded_gap_projection_bound"),
                         c["experiments.trials"])),
    ("coeffspace.vectors_built", lambda s, c: s.calls(_BUILD)),
    ("coeffspace.build_s", lambda s, c: s.total(_BUILD)),
    ("coeffspace.norm_calls", lambda s, c: s.calls(*_NORM_SPANS)),
    ("coeffspace.norm_s", lambda s, c: s.total(*_NORM_SPANS)),
    ("coeffspace.project_calls", lambda s, c: s.calls(*_PROJECT_SPANS)),
    ("coeffspace.project_s", lambda s, c: s.total(*_PROJECT_SPANS)),
    ("coeffspace.algebra_calls", lambda s, c: s.calls(*_ALGEBRA_SPANS)),
    ("coeffspace.algebra_s", lambda s, c: s.total(*_ALGEBRA_SPANS)),
    ("coeffspace.samples_drawn", lambda s, c: c["coeffspace.samples_drawn"]),
    ("coeffspace.sample_s", lambda s, c: s.total("coeffspace.random_vectors")),
    ("coeffspace.builds_per_norm",
     lambda s, c: _ratio(s.calls(_BUILD), s.calls(*_NORM_SPANS))),
    ("greedy.select_calls", lambda s, c: s.calls("greedy.one_greedy_set")),
    ("greedy.select_s", lambda s, c: s.total("greedy.one_greedy_set")),
    ("greedy.enumerate_calls",
     lambda s, c: s.calls("greedy.enumerate_t_greedy_sets")),
    ("greedy.sets_enumerated", lambda s, c: c["greedy.sets_enumerated"]),
    ("greedy.enumerate_overflows", lambda s, c: c["greedy.enumerate_overflows"]),
    ("greedy.enumerate_s", lambda s, c: s.total("greedy.enumerate_t_greedy_sets")),
    ("greedy.check_calls", lambda s, c: s.calls("greedy.is_t_greedy")),
    ("greedy.check_s", lambda s, c: s.total("greedy.is_t_greedy")),
    ("counterexample.classes_walked",
     lambda s, c: c["counterexample.classes_walked"]),
    ("counterexample.enumerate_s",
     lambda s, c: s.total("counterexample.enumerate_selection_classes")),
    ("counterexample.norm_calls",
     lambda s, c: s.calls("counterexample.selection_norm")),
    ("counterexample.norm_s", lambda s, c: s.total("counterexample.selection_norm")),
    ("counterexample.floor_calls",
     lambda s, c: s.calls("counterexample.phi_lower_bound")),
    ("counterexample.floor_s", lambda s, c: s.total("counterexample.phi_lower_bound")),
    ("counterexample.rows", lambda s, c: c["counterexample.rows"]),
    ("counterexample.rows_inexact", lambda s, c: c["counterexample.rows_inexact"]),
    ("counterexample.classes_per_row",
     lambda s, c: _ratio(c["counterexample.classes_walked"], c["counterexample.rows"])),
    ("perturb.trials", lambda s, c: c["perturb.trials"]),
    ("perturb.failures", lambda s, c: c["perturb.failures"]),
    ("perturb.perturb_s", lambda s, c: s.total("perturb.perturb_to_finite_support")),
    ("perturb.padding_s", lambda s, c: s.total("perturb.padding_set_construction")),
    ("perturb.audit_s", lambda s, c: s.total("perturb.equivalence_audit")),
    ("perturb.suite_self_s", lambda s, c: s.self_time_of(*_g("perturb", _SUITES))),
    ("reporting.bytes_written", lambda s, c: c["reporting.bytes_written"]),
    ("reporting.write_s", lambda s, c: s.total(*_WRITES)),
    ("reporting.map_calls", lambda s, c: s.calls("reporting.parallel_map")),
    ("reporting.map_overhead_s",
     lambda s, c: s.self_time_of("reporting.parallel_map")),
]


def layer_values(tracer: Tracer, index: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of traced pass ``index`` and its raw counters."""
    spans = tracer.pass_view(index)
    counts = tracer.pass_counts[index]
    return ({name: float(fn(spans, counts)) for name, fn in LAYER_METRICS},
            dict(sorted(counts.items())))
