"""Repeat the benchmark over ten seeds and summarise its spread.

    python3 perfbench/baseline.py [--write perfbench/baseline.json]

For every workload, ten untraced runs, each a separate ``run.py`` process
with its own seed from 1 to 10, then one traced run at the default seed.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread: the interquartile distance
as a share of the median, checked against a third of the metric's bound in
BENCHMARK.json.  ``--write`` stores the summary as the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import SPEC, machine
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10


def run(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, time.perf_counter() - t0


def summarise(workload: str, results: list[dict], durations: list[float]) -> dict:
    out = {"runs": len(results), "run_duration_s_max": max(durations), "metrics": {}}
    for spec in SPEC["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        out["metrics"][spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1,
                                        "q3": q3, "spread": spread}
        flag = "" if spread < spec["bound"] / 3 else "  <-- above a third of the bound"
        print(f"{workload:15s} {spec['name']:14s} median {med:12.6g} q1 {q1:12.6g} "
              f"q3 {q3:12.6g} spread {spread:7.4f} bound {spec['bound']}{flag}",
              flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    summary = {"run_seconds": SPEC["run_seconds"], "machine": machine(), "workloads": {}}
    for workload in WORKLOADS:
        results, durations = [], []
        for seed in range(1, RUNS + 1):
            result, duration = run(workload, seed, 0)
            results.append(result)
            durations.append(duration)
        summary["workloads"][workload] = summarise(workload, results, durations)
        result, _ = run(workload, DEFAULT_SEED, 1)
        summary["workloads"][workload]["per_layer_at_default_seed"] = {
            k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload:15s} longest run {max(durations):.1f} s", flush=True)
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
