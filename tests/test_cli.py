"""Exit-code contract, overrides, and reproducibility of the runner.

The command surface is small on purpose: run / validate / list-scenarios,
with exit codes 0 (all verdicts pass), 1 (a verdict failed), 2 (config
problem), 3 (audit failure), 4 (solver failure). Everything here drives
main() in process and checks what lands on disk.
"""

import json
import os
import subprocess
import sys

import pytest

import peanobsde.cli as cli
from peanobsde.cli import SCENARIO_ORDER, list_scenarios, main
from peanobsde.solver import FixedPointDivergenceError

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")

UNIQ_TINY = """
[scenario]
name = uniqueness_convergence

[generator]
family = sqrt

[terminal]
kind = constant
value = 1.0

[grid]
horizon = 1.0
steps = 20

[ensemble]
paths = 300
seed = 5

[output]
dir = {out}

[params]
steps_table = 10,20
stochastic_tolerance = 0.5
"""

AUDIT_UNDERSTATED = """
[scenario]
name = assumption_audit

[generator]
family = sqrt
gradient_coeff = 1.0
declared_gamma = 0.25

[output]
dir = {out}

[params]
sample_budget = 1000
"""


def write_ini(tmp_path, template, name="config.ini", **extra):
    out = tmp_path / "out"
    text = template.format(out=out, **extra)
    path = tmp_path / name
    path.write_text(text)
    return str(path), str(out)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def csv_bytes(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                blobs[name] = fh.read()
    return blobs


class TestListScenarios:
    def test_exit_zero_and_seven_stable_entries(self, capsys):
        assert main(["list-scenarios"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        names = [ln.split(":", 1)[0] for ln in lines]
        assert names == list(SCENARIO_ORDER)
        for ln in lines:
            assert ln.split(":", 1)[1].strip()

    def test_catalogue_matches_registry(self):
        assert [name for name, _ in list_scenarios()] == list(SCENARIO_ORDER)
        assert set(SCENARIO_ORDER) == set(cli._SCENARIO_FUNCS)

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "peanobsde",
             "list-scenarios"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = [ln.split(":", 1)[0] for ln in proc.stdout.splitlines()]
        assert names == list(SCENARIO_ORDER)

    def test_python_dash_m_on_the_cli_module_warns_nothing(self):
        # runpy warns when the package import has already loaded the module
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "peanobsde.cli", "list-scenarios"], capture_output=True,
            text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        names = [ln.split(":", 1)[0] for ln in proc.stdout.splitlines()]
        assert names == list(SCENARIO_ORDER)


class TestExitCodes:
    def test_passing_run_returns_zero(self, tmp_path, capsys):
        cfg, out = write_ini(tmp_path, UNIQ_TINY)
        assert main(["run", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_failed_verdict_returns_one(self, tmp_path, capsys):
        # an impossible tolerance must surface as a FAIL line, not a crash
        cfg, out = write_ini(tmp_path,
                             UNIQ_TINY + "det_tolerance = 1e-30\n")
        assert main(["run", "--config", cfg]) == 1
        assert "[FAIL]" in capsys.readouterr().out
        # outputs still land so the failure can be inspected
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_missing_file_returns_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ini")
        assert main(["run", "--config", missing]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scenario_returns_two(self, tmp_path, capsys):
        cfg, _ = write_ini(tmp_path, UNIQ_TINY.replace(
            "uniqueness_convergence", "does_not_exist"))
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_bad_seed_override_returns_two(self, tmp_path):
        cfg, _ = write_ini(tmp_path, UNIQ_TINY)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 2

    def test_understated_gradient_bound_returns_three(self, tmp_path,
                                                      capsys):
        cfg, _ = write_ini(tmp_path, AUDIT_UNDERSTATED)
        assert main(["run", "--config", cfg]) == 3
        assert "audit failure" in capsys.readouterr().err

    def test_validate_reports_audit_failure(self, tmp_path, capsys):
        cfg, _ = write_ini(tmp_path, AUDIT_UNDERSTATED)
        assert main(["validate", "--config", cfg]) == 3
        assert "[FAIL]" in capsys.readouterr().out

    def test_validate_passes_clean_config(self, tmp_path, capsys):
        cfg, _ = write_ini(tmp_path, UNIQ_TINY)
        assert main(["validate", "--config", cfg]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_solver_failure_returns_four(self, tmp_path, monkeypatch,
                                         capsys):
        # the numerical core is damped enough that no shipped config
        # diverges; exercise the mapping itself
        cfg, _ = write_ini(tmp_path, UNIQ_TINY)

        def blow_up(cfg):
            raise FixedPointDivergenceError(3, 25.0)

        monkeypatch.setitem(cli._SCENARIO_FUNCS, "uniqueness_convergence",
                            blow_up)
        assert main(["run", "--config", cfg]) == 4
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("degree", ["0", "2.5"])
    def test_bad_regression_degree_returns_two(self, tmp_path, capsys,
                                               degree):
        with open(os.path.join(CONFIGS, "lower_bound.ini")) as fh:
            text = fh.read()
        assert "regression_degree = 4" in text
        cfg = tmp_path / "lower_bound.ini"
        cfg.write_text(text.replace("regression_degree = 4",
                                    f"regression_degree = {degree}"))
        # validate reads the key through the same helper as run
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2, command
            assert "regression_degree" in capsys.readouterr().err, command


class TestNoiselessScenarios:
    @pytest.mark.parametrize("name", ["duality_frontier", "multiplicity_zoo",
                                      "ez_utility"])
    def test_deterministic_scenarios_draw_no_paths(self, tmp_path,
                                                   monkeypatch, name):
        def no_draws(*args):
            raise AssertionError("a deterministic scenario drew paths")

        monkeypatch.setattr("peanobsde.engine._step_normals", no_draws)
        cfg = os.path.join(CONFIGS, f"{name}.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0


class TestOverrides:
    def test_seed_override_lands_in_report(self, tmp_path):
        cfg, out = write_ini(tmp_path, UNIQ_TINY)
        assert main(["run", "--config", cfg, "--seed", "99"]) == 0
        assert read_report(out)["seed"] == 99

    def test_out_override_redirects_everything(self, tmp_path):
        cfg, out = write_ini(tmp_path, UNIQ_TINY)
        other = str(tmp_path / "elsewhere")
        assert main(["run", "--config", cfg, "--out", other]) == 0
        assert not os.path.exists(out)
        assert os.path.exists(os.path.join(other, "report.json"))
        assert csv_bytes(other)



class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg, _ = write_ini(tmp_path, UNIQ_TINY)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", a]) == 0
        assert main(["run", "--config", cfg, "--out", b]) == 0

        blobs_a, blobs_b = csv_bytes(a), csv_bytes(b)
        assert blobs_a and blobs_a.keys() == blobs_b.keys()
        for name in blobs_a:
            assert blobs_a[name] == blobs_b[name], name

        ra, rb = read_report(a), read_report(b)
        ra.pop("wall_clock_seconds")
        rb.pop("wall_clock_seconds")
        assert ra == rb

    def test_seed_changes_the_numbers(self, tmp_path):
        cfg, _ = write_ini(tmp_path, UNIQ_TINY)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", a]) == 0
        assert main(["run", "--config", cfg, "--out", b,
                     "--seed", "6"]) == 0
        assert csv_bytes(a) != csv_bytes(b)

    def test_float_cells_use_shortest_roundtrip_text(self, tmp_path):
        cfg, out = write_ini(tmp_path, UNIQ_TINY)
        assert main(["run", "--config", cfg]) == 0
        for name, blob in csv_bytes(out).items():
            body = blob.decode().splitlines()[1:]
            assert body, name
            for line in body:
                assert "np.float64" not in line
