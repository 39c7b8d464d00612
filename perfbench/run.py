"""greedylab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, both modes

Run from anywhere; the program is imported from the checkout's ``src/``.  A
pass is the workload's fixed list of ``run_experiment_set`` calls, each
writing its reports under ``.bench_out/``; passes repeat while the next one
is expected to end within ``--seconds``.  Pass and set-up times are put on a
fixed reference core speed by ``speed.py``.  With ``--trace 0`` the end-to-end
metrics are measured; with ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics come from the traced ones.  Every run checks that no operation raised or
reported an invariant violation and that every pass wrote byte-identical
reports.  The last line of standard output is one JSON object; a full record
of the run goes to ``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from speed import SpeedSampler
from tracing import LAYER_METRICS, Tracer, layer_values
from workloads import DEFAULT_SEED, WORKLOADS, build_ops, import_program, warmup_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference_digests.json"
SETUP_PROBES = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass
class Pass:
    wall: float  # reference seconds, see speed.py
    cpu: float
    raw_wall: float
    raw_cpu: float
    attempted: int
    failed: int
    digests: dict[str, str]
    errors: list[str] = field(default_factory=list)


def pin_threads() -> str:
    """The benchmark measures the default thread cap of 1 and nothing else."""
    value = os.environ.setdefault("GREEDYLAB_THREADS", "1")
    if value != "1":
        raise SystemExit(f"GREEDYLAB_THREADS={value!r}: this benchmark measures the "
                         "default cap of 1; unset the variable to run it")
    return value


def digest_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pass(call, ops, out: Path) -> Pass:
    """One pass, timed; every report it writes is hashed, then removed.

    Garbage left by the previous pass is collected first, so that each pass
    starts from the clean heap a fresh CLI invocation has.  Its times are
    kept both as measured and in reference seconds."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    failed = 0
    errors = []
    sampler = SpeedSampler()
    with sampler.running():
        mark = sampler.mark()
        c0, t0 = time.process_time(), time.perf_counter()
        for i, (name, params, seed) in enumerate(ops):
            try:
                violations = call(name, dict(params), out / f"{i:02d}-{name}", seed)
            except Exception as exc:  # a raising operation is a failed operation
                violations = None
                errors.append(f"{i:02d}-{name}: {type(exc).__name__}: {exc}")
            if violations != 0:
                failed += 1
                if violations is not None:
                    errors.append(f"{i:02d}-{name}: {violations} invariant violation(s)")
    raw_wall, raw_cpu = time.perf_counter() - t0, time.process_time() - c0
    busy, scale = sampler.scale(mark)
    wall, cpu = (raw_wall - busy) * scale, (raw_cpu - busy) * scale
    digests = digest_tree(out) if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    return Pass(wall, cpu, raw_wall, raw_cpu, len(ops), failed, digests, errors)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Reference and measured seconds to import greedylab and generate the
    inputs, in a fresh interpreter."""
    res = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    ref, raw = res.stdout.strip().splitlines()[-1].split()
    return float(ref), float(raw)


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def machine() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model()}


def metadata(args, threads: str, passes: dict[str, int]) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine(), "greedylab_threads": threads,
            "passes": passes}


def consistency_errors(passes: list[Pass]) -> list[str]:
    first = passes[0].digests
    return [f"pass {i} wrote reports that differ from pass 0"
            for i, p in enumerate(passes) if p.digests != first]


def reference_digests() -> dict[str, dict[str, str]]:
    """Report digests per workload, recorded at the default seed."""
    return json.loads(REFERENCE.read_text())["workloads"] if REFERENCE.exists() else {}


def digest_changes(workload: str, digests: dict[str, str]) -> int:
    """Report files whose SHA-256 differs from the default seed's reference;
    a workload missing from the reference counts every file as changed."""
    ref = reference_digests().get(workload, {})
    return sum(1 for k in set(ref) | set(digests) if ref.get(k) != digests.get(k))


def run_untraced(args, call, ops) -> tuple[dict, list[Pass], dict]:
    # the first probe only fills the bytecode and file caches; the kept ones
    # are spread between the passes so that they sample the whole run
    measure_setup(args.workload, args.seed)
    run_pass(call, warmup_ops(args.workload), OUT / "warmup")
    passes, setup = [], []
    start, step = time.perf_counter(), 0.0
    while not passes or time.perf_counter() - start + step <= args.seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(call, ops, OUT / f"reports-{os.getpid()}"))
        if len(setup) < SETUP_PROBES:
            setup.append(measure_setup(args.workload, args.seed))
        step = time.perf_counter() - t0
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args.workload, args.seed))
    walls = [p.wall for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(ref for ref, _ in setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tail_percentile(len(walls))
    detail = {"passes": {"untraced": len(passes)},
              "wall_s_samples": walls, "cpu_s_samples": [p.cpu for p in passes],
              "setup_s_samples": [ref for ref, _ in setup],
              "measured_wall_s_samples": [p.raw_wall for p in passes],
              "measured_cpu_s_samples": [p.raw_cpu for p in passes],
              "measured_setup_s_samples": [raw for _, raw in setup],
              "wall_s_tail_percentile": tail,
              "wall_s_tail": (statistics.quantiles(walls, n=1000)[int(tail * 10) - 1]
                              if tail else None)}
    return metrics, passes, detail


def run_traced(args, call, ops) -> tuple[dict, list[Pass], dict]:
    tracer = Tracer()
    traced_call = tracer.span("cli.run_experiment_set", call)
    run_pass(call, warmup_ops(args.workload), OUT / "warmup")
    plain, traced = [], []
    start, step = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - start + step <= args.seconds:
        t0 = time.perf_counter()
        plain.append(run_pass(call, ops, OUT / f"reports-{os.getpid()}"))
        with tracer.installed():
            traced.append(run_pass(traced_call, ops, OUT / f"reports-{os.getpid()}"))
        step = time.perf_counter() - t0
    per_pass = [layer_values(tracer, i) for i in range(len(traced))]
    metrics = {}
    for name, _ in LAYER_METRICS:
        values = [values[name] for values, _ in per_pass]
        metrics[name] = (statistics.median(values) if PER_LAYER_UNITS[name] == "s"
                         else values[0])
    metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                       / statistics.median(p.wall for p in plain))
    errors = []
    counted = [{k: v for k, v in values.items() if PER_LAYER_UNITS[k] != "s"}
               for values, _ in per_pass]
    if any(c != counted[0] or raw != per_pass[0][1]
           for c, (_, raw) in zip(counted, per_pass)):
        errors.append("per-layer counts differ between traced passes")
    if traced[0].digests != plain[0].digests:
        errors.append("traced reports differ from untraced reports")
    tracer.save(OUT / f"spans-{args.workload}.npz")
    detail = {"passes": {"untraced": len(plain), "traced": len(traced)},
              "counters": per_pass[0][1], "errors": errors,
              "traced_wall_s_samples": [p.wall for p in traced],
              "untraced_wall_s_samples": [p.wall for p in plain]}
    return metrics, plain + traced, detail


def run_one(args) -> int:
    threads = pin_threads()
    call = import_program()
    ops = build_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, passes, detail = run_traced(args, call, ops)
        units = PER_LAYER_UNITS
    else:
        metrics, passes, detail = run_untraced(args, call, ops)
        units = END_TO_END_UNITS
    changes = (digest_changes(args.workload, passes[0].digests)
               if args.seed == DEFAULT_SEED else None)
    if args.trace:
        metrics["reporting.digest_changes"] = changes or 0
    errors = (detail.pop("errors", []) + consistency_errors(passes)
              + [e for p in passes for e in p.errors])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    meta = metadata(args, threads, detail.pop("passes"))

    print("# meta " + json.dumps(meta, sort_keys=True))
    for name in units:
        print(f"{name:42s} {metrics[name]!r:>24} {units[name]}")
    print(f"{'fail_ratio':42s} {failed / attempted!r:>24} ratio")
    if changes is None:
        print(f"# reporting.digest_changes: reference digests exist only for seed "
              f"{DEFAULT_SEED}")
    for key, value in detail.items():
        print(f"# {key}: {value}")
    for err in errors:
        print(f"# error: {err}")

    correct = failed == 0 and not errors
    if args.record_reference and correct:
        recorded = reference_digests()
        recorded[args.workload] = passes[0].digests
        REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded},
                                        indent=1, sort_keys=True) + "\n")
    result = {"correct": correct, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "detail": detail, "errors": errors,
                    "digests": passes[0].digests}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload with and without tracing, one child process each."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print(f"## {workload} --trace {trace}")
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update(
                {f"{workload}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's report digests as the reference "
                             f"(only at the default seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs the default seed {DEFAULT_SEED}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
