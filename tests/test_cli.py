"""Command-line harness: config handling, exit codes, deterministic output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from greedylab import cli
from greedylab.acceptance import Profile, criterion_9_determinism

# experiment -> the cli global that run_experiment_set calls for it
RUNNERS = {"divergence": "divergence_rows", "constants": "constants_table",
           "transfer": "transfer_table", "bounded-gaps": "bounded_gap_trials",
           "suppression-one": "suppression_rows", "perturb-audit": "perturb_audit"}


def write_config(path: Path, name: str, seed: int = 7, **params) -> Path:
    lines = ["[experiment]", f"name = {name}", f"seed = {seed}"]
    if params:
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "divergence", depth=3, t=0.5)
        name, seed, params = cli.load_config(cfg)
        assert name == "divergence" and seed == 7
        assert params["depth"] == 3 and params["t"] == 0.5 and params["adversary"]

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "divergence")
        cfg.write_text(cfg.read_text().replace("divergence", "wiggle"))
        with pytest.raises(cli.UsageError, match="unknown experiment"):
            cli.load_config(cfg)

    def test_unknown_parameter(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "divergence", depth=3, wobble=1)
        with pytest.raises(cli.UsageError, match="unknown parameter"):
            cli.load_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.UsageError, match="not found"):
            cli.load_config(tmp_path / "absent.ini")

    def test_dims_parsing(self):
        assert cli._parse_dims("2..5") == (2, 3, 4, 5)
        assert cli._parse_dims("2, 4 ,6") == (2, 4, 6)
        for empty in ("5..2", "", " , "):
            with pytest.raises(cli.UsageError, match="dims names no dimension"):
                cli._parse_dims(empty)

    def test_boolean_spellings(self, tmp_path):
        for raw, value in (("on", True), ("Yes", True), ("0", False), ("off", False)):
            cfg = write_config(tmp_path / "c.ini", "divergence", adversary=raw)
            assert cli.load_config(cfg)[2]["adversary"] is value
        cfg = write_config(tmp_path / "c.ini", "divergence", adversary="maybe")
        with pytest.raises(cli.UsageError, match="expected a boolean, got 'maybe'"):
            cli.load_config(cfg)


class TestExperimentTable:
    def test_quick_overrides_name_default_keys(self):
        for name, (defaults, quick) in cli.EXPERIMENTS.items():
            assert quick and set(quick) <= set(defaults), name

    def test_every_experiment_has_a_runner(self):
        assert set(RUNNERS) == set(cli.EXPERIMENTS)

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_dispatch_calls_the_runner_patched_on_cli(self, name, tmp_path, monkeypatch):
        called = []
        for experiment, runner in RUNNERS.items():
            monkeypatch.setattr(cli, runner, lambda *a, _e=experiment, **k: called.append(_e)
                                or {"header": ["x"], "rows": [], "json": {}, "violations": 0})
        params = dict(cli.EXPERIMENTS[name][0])
        assert cli.run_experiment_set(name, params, tmp_path, seed=0) == 0
        assert called == [name]

    def test_criterion_9_runs_every_experiment(self, monkeypatch):
        names = []
        monkeypatch.setattr(cli, "run_experiment_set",
                            lambda name, params, out, seed: names.append(name) or 0)
        criterion_9_determinism(Profile(quick=True))
        assert names == list(cli.EXPERIMENTS) * 2


class TestRunCommand:
    def test_divergence_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "divergence", depth=3, t=1.0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        csv_text = (out / "divergence.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "m,t,K,min_norm,phi,lower_bound,greedy_set_family"
        payload = json.loads((out / "divergence.json").read_text())
        assert payload["config"]["experiment"] == "divergence"
        assert payload["config"]["depth"] == 3
        assert (out / "effective_config.ini").exists()

    def test_usage_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[experiment]\nname = nonsense\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert cli.main(["run", "--config", str(tmp_path / "missing.ini"),
                         "--out", str(tmp_path)]) == 1

    def test_violations_map_to_exit_two(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", "divergence", depth=2)
        monkeypatch.setattr(cli, "divergence_rows",
                            lambda *a, **k: {"header": ["x"], "rows": [[1]],
                                             "json": {}, "violations": 3})
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_seed_override_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "bounded-gaps", trials=30,
                           dim_lo=8, dim_hi=16)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                             "--seed", "99"]) == 0
        assert (out_a / "bounded-gaps.csv").read_bytes() == \
            (out_b / "bounded-gaps.csv").read_bytes()
        assert (out_a / "bounded-gaps.json").read_bytes() == \
            (out_b / "bounded-gaps.json").read_bytes()

    def test_csv_format_contract(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "suppression-one", budget=20, dim=8)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        raw = (out / "suppression-one.csv").read_bytes()
        assert b"\r" not in raw  # newline-only line endings
        lines = raw.decode().splitlines()
        assert lines[0].startswith("space,n1,M,bound")
        # numeric cells use '.' decimals and round-trip through float()
        numeric = lines[1].split(",")[2:4]
        assert all(float(cell) == float(cell) for cell in numeric)
        assert all("." in cell for cell in numeric)

    @pytest.mark.parametrize("name", list(RUNNERS))
    def test_remaining_experiments_run_quick(self, name, tmp_path):
        cfg = write_config(tmp_path / "c.ini", name)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--quick"]) == 0
        assert (out / f"{name}.csv").exists() and (out / f"{name}.json").exists()

    @pytest.mark.parametrize("name,params,message", [
        ("constants", {"space": "lp:nan", "dims": "2..3"}, "requires p > 0, got nan"),
        ("constants", {"space": "lp:1/0", "dims": "2..3"}, "exponent '1/0' divides by zero"),
        ("constants", {"dims": "5..2"}, "dims names no dimension: '5..2'"),
        ("constants", {"dims": ""}, "dims names no dimension: ''"),
        ("transfer", {"dims": "5..2"}, "dims names no dimension: '5..2'"),
        ("transfer", {"dims": ""}, "dims names no dimension: ''"),
        ("bounded-gaps", {"dim_lo": 9, "dim_hi": 8}, "dim_lo = 9, dim_hi = 8"),
        ("bounded-gaps", {"dim_lo": 0, "dim_hi": 8}, "dim_lo = 0, dim_hi = 8"),
        ("perturb-audit", {"dim": 0}, "dim must be at least 1, got 0"),
        ("perturb-audit", {"trials": 0}, "trials must be at least 1, got 0"),
        ("bounded-gaps", {"trials": -3}, "trials must be at least 1, got -3"),
        ("constants", {"budget": -1}, "budget must be nonnegative, got -1"),
        ("suppression-one", {"budget": -1}, "budget must be nonnegative, got -1"),
        ("constants", {"dims": "0..2"}, "dim = 0 is below the gap sequence's first term 1"),
        ("suppression-one", {"dim": 1}, "dim = 1 is below the gap sequence's first term 2"),
    ])
    def test_bad_input_exits_one(self, name, params, message, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", name, **params)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert not (out / f"{name}.csv").exists()
        assert not (out / "effective_config.ini").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "divergence", depth=2)
        proc = subprocess.run(
            [sys.executable, "-m", "greedylab.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "divergence: ok" in proc.stdout

    def test_package_runs_as_module(self):
        proc = subprocess.run([sys.executable, "-m", "greedylab", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "verify" in proc.stdout and "run" in proc.stdout


class TestReporting:
    def test_parallel_map_preserves_order(self):
        from greedylab.reporting import parallel_map

        assert parallel_map(lambda v: v * v, range(40)) == [v * v for v in range(40)]

    def test_csv_cells(self):
        from greedylab.reporting import format_cell

        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(0.1) == "0.1"
        assert format_cell(7) == "7"
