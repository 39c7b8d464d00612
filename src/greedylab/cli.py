"""Command-line harness: config-driven experiment runs and the acceptance
suite.

``greedylab run --config FILE --out DIR`` executes one named experiment and
writes CSV + JSON reports plus an echo of the effective configuration.
``greedylab verify`` runs the acceptance suite and prints one line per
criterion.  Exit codes: 0 success, 1 usage or configuration error, 2 any
invariant violation or failed criterion.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path
from typing import Optional

from .acceptance import Profile, results_to_report, run_all
from .experiments import (bounded_gap_trials, constants_table, divergence_rows,
                          perturb_audit, suppression_rows, transfer_table)
from .reporting import write_csv, write_json

# name -> (default parameters, the parameters --quick overrides)
EXPERIMENTS: dict[str, tuple[dict, dict]] = {
    "divergence": ({"depth": 6, "t": 1.0, "adversary": True}, {"depth": 4}),
    "constants": ({"space": "summing", "kind": "C_q_t", "t": 1.0,
                   "dims": "2..12", "budget": 100},
                  {"dims": "2..6", "budget": 40}),
    "transfer": ({"space": "summing", "dims": "2..3", "step": 0.05}, {"dims": "2"}),
    "bounded-gaps": ({"trials": 2000, "dim_lo": 8, "dim_hi": 64},
                     {"trials": 300, "dim_hi": 32}),
    "suppression-one": ({"budget": 400, "dim": 12}, {"budget": 60}),
    "perturb-audit": ({"trials": 400, "dim": 16}, {"trials": 80}),
}


class UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        dims = tuple(range(int(lo), int(hi) + 1))
    else:
        dims = tuple(int(v) for v in text.replace(",", " ").split())
    if not dims:
        raise UsageError(f"dims names no dimension: {text!r}")
    return dims


def _coerce(default, raw: str):
    if isinstance(default, bool):
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise UsageError(f"expected a boolean, got {raw!r}") from None
    return type(default)(raw)  # int, float or str


def load_config(path: Path) -> tuple[str, int, dict]:
    """Read the experiment name, seed, and parameter overrides."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    if not parser.has_section("experiment"):
        raise UsageError("config needs an [experiment] section with a name")
    name = parser.get("experiment", "name", fallback=None)
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment name: {name!r}; "
                         f"choose one of {', '.join(EXPERIMENTS)}")
    seed = parser.getint("experiment", "seed", fallback=0)
    params = dict(EXPERIMENTS[name][0])
    if parser.has_section(name):
        for key, raw in parser.items(name):
            if key not in params:
                raise UsageError(f"unknown parameter {key!r} for experiment {name}")
            params[key] = _coerce(params[key], raw)
    return name, seed, params


def _echo_config(out: Path, name: str, seed: int, params: dict) -> dict:
    effective = {"experiment": name, "seed": seed, **params}
    lines = ["[experiment]", f"name = {name}", f"seed = {seed}", "", f"[{name}]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.ini").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8", newline="\n")
    return effective


def run_experiment_set(name: str, params: dict, out: Path, seed: int) -> int:
    """Execute one experiment, write its reports, return the violation count.

    Nothing is written until the runner returns, so a run refused on bad
    input leaves no file behind.
    """
    out = Path(out)

    if name == "divergence":
        rep = divergence_rows(int(params["depth"]), float(params["t"]),
                              bool(params["adversary"]))
    elif name == "constants":
        rep = constants_table(params["space"], params["kind"], float(params["t"]),
                              _parse_dims(params["dims"]), int(params["budget"]),
                              seed)
    elif name == "transfer":
        rep = transfer_table(params["space"], _parse_dims(params["dims"]),
                             float(params["step"]))
    elif name == "bounded-gaps":
        rep = bounded_gap_trials(int(params["trials"]), seed,
                                 (int(params["dim_lo"]), int(params["dim_hi"])))
    elif name == "suppression-one":
        rep = suppression_rows(dim=int(params["dim"]),
                               budget=int(params["budget"]), seed=seed)
    elif name == "perturb-audit":
        rep = perturb_audit(int(params["trials"]), seed, dim=int(params["dim"]))
    else:
        raise UsageError(f"unknown experiment name: {name!r}")

    effective = _echo_config(out, name, seed, params)
    write_csv(out / f"{name}.csv", rep["header"], rep["rows"])
    write_json(out / f"{name}.json", {"config": effective, **rep["json"]})
    return int(rep["violations"])


def cmd_run(args: argparse.Namespace) -> int:
    try:
        name, seed, params = load_config(Path(args.config))
        if args.seed is not None:
            seed = args.seed
        if args.quick:
            params.update(EXPERIMENTS[name][1])
        violations = run_experiment_set(name, params, Path(args.out), seed)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if violations:
        print(f"{name}: {violations} invariant violation(s); see {args.out}",
              file=sys.stderr)
        return 2
    print(f"{name}: ok; reports in {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    profile = Profile(quick=args.quick, seed=args.seed if args.seed is not None else 42)
    results = run_all(profile, echo=print)
    report = results_to_report(results, profile)
    out = Path(args.out)
    write_json(out / "verify_report.json", report)
    write_csv(out / "verify_report.csv",
              ["criterion", "name", "passed"],
              [[r.number, r.name, r.passed] for r in results])
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed; "
          f"reports in {out}")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for invariant violations; usage errors are 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greedylab",
        description="Numerical laboratory for thresholding greedy algorithms "
                    "in sequence spaces.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one config-driven experiment")
    p_run.add_argument("--config", required=True, help="INI config file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--quick", action="store_true", help="reduced parameters")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--out", default="out", help="output directory")
    p_verify.add_argument("--seed", type=int, default=None, help="seed (default 42)")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced depths/dims/trials (under a minute)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
