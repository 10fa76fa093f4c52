"""Command-line interface: JSON payloads, CSV artifacts, exit codes."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coneflow import ConeParams, ConePoint, PeriodicGrid, cone_distance
from coneflow.cli import main
from coneflow.formats import read_density_csv, write_density_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_cone_dist_matches_library(capsys):
    code, body = run_json(capsys, "cone", "dist", "--x0", "0.0", "--m0", "1.0",
                          "--x1", "3.141592653589793", "--m1", "1.0")
    assert code == 0
    assert body["distance"] == cone_distance(
        ConePoint(0.0, 1.0), ConePoint(np.pi, 1.0), ConeParams())
    assert body["distance"] == pytest.approx(2.0, abs=1e-12)


def test_cone_geodesic_writes_csv(capsys, tmp_path):
    out = tmp_path / "geo.csv"
    code, body = run_json(capsys, "cone", "geodesic", "--x0", "0", "--m0", "1",
                          "--dx0", "0", "--dm0", "0.5", "--t-final", "0.5",
                          "--dt", "0.01", "--csv", str(out))
    assert code == 0
    assert body["speed_drift"] < 1e-8
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,m"
    last = [float(p) for p in lines[-1].split(",")]
    assert last[1] == body["x"] and last[2] == body["m"]


def test_ch_solve_invariants_and_euler_check(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    # bump initial data has nonzero mean momentum, so both relative drifts
    # are measured against an order-one scale
    code, body = run_json(capsys, "ch", "solve", "--n", "64", "--dt", "1e-3",
                          "--t-final", "0.1", "--init", "bump:3.0,0.8,1.0",
                          "--out", str(out))
    assert code == 0
    assert body["energy_rel_drift"] < 1e-10
    assert body["momentum_rel_drift"] < 1e-10

    code, inv = run_json(capsys, "ch", "invariants", "--traj", str(out))
    assert code == 0
    assert inv["energy_initial"] == body["energy_initial"]
    assert inv["energy_rel_drift"] < 1e-10

    code, chk = run_json(capsys, "euler", "check", "--traj", str(out))
    assert code == 0
    assert chk["max_div"] == 0.0
    assert chk["max_momentum_residual"] < 1e-4
    assert chk["det_residual"] < 1e-8
    assert chk["pushforward_residual"] < 1e-8
    assert chk["equivalence_gap"] < 1e-10
    assert chk["isotropy_residual"] < 1e-6


def test_euler_check_requires_reference_coefficients(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    run_json(capsys, "ch", "solve", "--n", "64", "--dt", "1e-2",
             "--t-final", "0.05", "--init", "sin:0.1", "--out", str(out))
    code, body = run_json(capsys, "euler", "check", "--traj", str(out),
                          "--b", "1.0")
    assert code == 1
    assert body["error"]["type"] == "CLIInputError"


def test_wfr_solve_payload_and_csv(capsys, tmp_path):
    out = tmp_path / "plan.csv"
    code, body = run_json(capsys, "wfr", "solve",
                          "--rho0", "bump:2.0,0.8,1.0",
                          "--rho1", "bump:4.0,0.6,1.5",
                          "--n", "16", "--nt", "8", "--tol", "1e-5",
                          "--csv", str(out))
    assert code == 0
    assert body["distance"] > 0
    assert body["action"] == pytest.approx(body["distance"] ** 2, rel=1e-12)
    assert body["constraint_residual"] < 1e-10
    assert body["params"]["nx"] == 16 and body["params"]["nt"] == 8
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,rho,m,mu"
    assert len(lines) == 1 + 8 * 16


def test_wfr_hellinger_uniform_value(capsys):
    code, body = run_json(capsys, "wfr", "hellinger", "--rho0", "const:1",
                          "--rho1", "const:4", "--n", "32")
    assert code == 0
    assert body["distance"] == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)


def test_flow_horizontal_growth_action(capsys, tmp_path):
    out = tmp_path / "flow.csv"
    code, body = run_json(capsys, "flow", "horizontal",
                          "--rho0", "const:1.3", "--phi0", "const:0.5",
                          "--n", "32", "--t-final", "0.2", "--dt", "1e-3",
                          "--csv", str(out))
    assert code == 0
    # constant-speed geodesic: action = initial kinetic energy times duration
    assert body["action"] == pytest.approx(2 * np.pi * 1.3 * 0.25 * 0.2,
                                           rel=1e-9)
    assert body["horizontality_defect"] < 1e-12
    assert body["mass_final"] > body["mass_initial"]
    assert out.read_text().startswith("t,x,rho,v,alpha\n")


def test_lift_solves_symbol_equation(capsys, tmp_path):
    out = tmp_path / "potential.csv"
    code, body = run_json(capsys, "lift", "--rho", "const:1", "--x", "sin:1",
                          "--n", "128", "--out", str(out))
    assert code == 0
    assert body["residual"] < 1e-9
    # mode-1 perturbation of the uniform density lifts with gain 1/2.5
    assert body["potential_max"] == pytest.approx(0.4, abs=1e-10)
    x, potential = read_density_csv(out)
    grid = PeriodicGrid(128)
    assert np.max(np.abs(potential - 0.4 * np.sin(grid.x))) < 1e-10


def test_curvature_mode_one_plane(capsys, tmp_path):
    path = tmp_path / "cosine.csv"
    grid = PeriodicGrid(128)
    write_density_csv(path, grid.x, np.cos(grid.x))
    code, body = run_json(capsys, "curvature", "--rho", "const:1",
                          "--phi1", f"file:{path}", "--phi2", "sin:1",
                          "--n", "128")
    assert code == 0
    assert body["oneill"] == pytest.approx(3 / (50 * np.pi), abs=1e-12)


def test_minimality_rotation_window(capsys):
    code, body = run_json(capsys, "minimality", "--init", "const:1",
                          "--n", "64", "--dt", "1e-2", "--t-final", "1.0",
                          "--members", "10", "--seed", "7")
    assert code == 0
    assert body["window"] == pytest.approx(np.pi, abs=1e-10)
    assert body["window_ok"] is True
    assert body["geodesic_below_all"] is True
    assert body["note"] is None


def test_minimality_requires_seed(capsys):
    code, body = run_json(capsys, "minimality", "--init", "const:1")
    assert code == 1
    assert body["error"]["type"] == "CLIInputError"


def test_minimality_runs_only_at_the_reference_coefficients(capsys):
    # the Hessian certificate recovers the pressure with the (1, 1/2)
    # formula, so the command takes no coefficients to integrate with
    for flag in ("--a", "--b"):
        code, body = run_json(capsys, "minimality", "--init", "sin:0.2",
                              "--t-final", "0.5", "--members", "5",
                              "--seed", "3", flag, "2")
        assert code == 1
        assert body["error"]["type"] == "CLIInputError"


def test_cli_import_leaves_scipy_interpolate_unloaded():
    probe = ("import sys, coneflow.cli; "
             "print('scipy.interpolate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_blowup_exits_two_with_diagnostics(capsys):
    code, body = run_json(capsys, "ch", "solve", "--n", "64", "--dt", "1e-3",
                          "--t-final", "4.0", "--init", "sin:3.0")
    assert code == 2
    assert body["error"]["type"] == "CHBlowupError"
    assert 0.0 < body["error"]["diagnostics"]["time"] < 1.0


def test_nonconvergence_exits_two(capsys):
    code, body = run_json(capsys, "wfr", "solve", "--rho0", "bump:2.0,0.8,1.0",
                          "--rho1", "bump:4.0,0.6,1.5", "--n", "16",
                          "--nt", "8", "--max-iters", "50")
    assert code == 2
    assert body["error"]["type"] == "WFRConvergenceError"


def test_apex_hit_exits_two(capsys):
    code, body = run_json(capsys, "cone", "geodesic", "--x0", "0",
                          "--m0", "0.0025", "--dx0", "0", "--dm0", "-0.1",
                          "--t-final", "0.2", "--dt", "0.02")
    assert code == 2
    assert body["error"]["type"] == "ApexError"


def test_bad_inputs_exit_one(capsys):
    code, body = run_json(capsys, "cone", "dist", "--x0", "0", "--m0", "1",
                          "--x1", "1")
    assert code == 1
    assert body["error"]["type"] == "CLIInputError"
    code, body = run_json(capsys, "ch", "solve", "--init", "wiggle:1")
    assert code == 1
    assert body["error"]["type"] == "ValueError"
    code, body = run_json(capsys, "ch", "invariants", "--traj", "missing.csv")
    assert code == 1
    assert body["error"]["type"] in ("FileNotFoundError", "OSError")
    # a horizon that is not a whole number of steps is refused, not truncated
    code, body = run_json(capsys, "ch", "solve", "--n", "64", "--dt", "0.1",
                          "--t-final", "0.25", "--init", "sin:0.2")
    assert code == 1
    assert body["error"]["type"] == "ValueError"
    code, body = run_json(capsys, "cone", "geodesic", "--x0", "0", "--m0", "1",
                          "--dx0", "0.3", "--dm0", "-0.1", "--t-final", "1.0",
                          "--dt", "0.3")
    assert code == 1
    assert "whole number of steps" in body["error"]["message"]


def test_outdir_redirects_relative_paths(capsys, tmp_path, monkeypatch):
    outdir = tmp_path / "artifacts"
    monkeypatch.setenv("CONEFLOW_OUTDIR", str(outdir))
    code, body = run_json(capsys, "cone", "geodesic", "--x0", "0", "--m0", "1",
                          "--dx0", "1", "--dm0", "0", "--t-final", "0.1",
                          "--dt", "0.01", "--csv", "geo.csv")
    assert code == 0
    assert (outdir / "geo.csv").is_file()
    assert body["out"] == str(outdir / "geo.csv")


def test_module_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "coneflow.cli", "cone", "dist", "--x0", "0.3",
           "--m0", "1.2", "--x1", "2.1", "--m1", "0.7"]
    runs = [subprocess.run(cmd, capture_output=True, check=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    body = json.loads(runs[0].stdout)
    assert body["distance"] == cone_distance(
        ConePoint(0.3, 1.2), ConePoint(2.1, 0.7), ConeParams())


def test_console_script_entry_point():
    # Runs the body of the wrapper pip writes for the declared
    # [project.scripts] entry, so no install and no PATH lookup is needed.
    tomllib = pytest.importorskip(
        "tomllib" if sys.version_info >= (3, 11) else "tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["coneflow"]
    module, attr = entry.split(":")
    wrapper = [sys.executable, "-c",
               f"import sys; from {module} import {attr}; sys.exit({attr}())"]
    installed = shutil.which("coneflow")

    def run(*argv):
        result = subprocess.run([*wrapper, *argv], capture_output=True)
        if installed:
            script = subprocess.run([installed, *argv], capture_output=True)
            assert script.returncode == result.returncode
            assert script.stdout == result.stdout
        return result

    ok = run("wfr", "hellinger", "--rho0", "const:1", "--rho1", "const:1",
             "--n", "16")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["distance"] == 0.0
    # main's exit code must reach the process status through the wrapper
    bad = run("wfr", "hellinger", "--rho0", "wiggle:1", "--rho1", "const:1",
              "--n", "16")
    assert bad.returncode == 1, bad.stderr
    assert json.loads(bad.stdout)["error"]["type"] == "ValueError"
