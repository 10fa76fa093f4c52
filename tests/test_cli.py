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
from coneflow.formats import (read_density_csv, write_density_csv,
                              write_trajectory_csv)


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


@pytest.mark.parametrize("b", ["1e6", "1e8"])
def test_cone_dist_keeps_its_digits_at_large_b(capsys, b):
    # the angle 1/(2b) is tiny and the exact distance 4b sin(1/(4b)) is 1
    # to 1e-14
    code, body = run_json(capsys, "cone", "dist", "--x0", "0", "--m0", "1",
                          "--x1", "1", "--m1", "1", "--b", b)
    assert code == 0
    assert abs(body["distance"] - 1.0) < 1e-13


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


def test_ch_solve_and_invariants_report_the_same_drift(capsys, tmp_path):
    # both commands report the largest drift over every stored slice
    out = tmp_path / "traj.csv"
    code, body = run_json(capsys, "ch", "solve", "--n", "64", "--dt", "1e-2",
                          "--t-final", "2", "--init", "sin:0.3",
                          "--out", str(out))
    assert code == 0
    code, inv = run_json(capsys, "ch", "invariants", "--traj", str(out))
    assert code == 0
    keys = ["energy_initial", "energy_final", "energy_rel_drift",
            "momentum_initial", "momentum_final", "momentum_rel_drift"]
    assert [k for k in body if k in keys] == keys
    assert [k for k in inv if k in keys] == keys
    assert {k: body[k] for k in keys} == {k: inv[k] for k in keys}


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


def test_wfr_solve_identical_endpoints_converges_at_the_first_check(capsys):
    # the action of a zero distance is rounding noise: it must not decide
    # whether, or when, the solver stops
    code, body = run_json(capsys, "wfr", "solve", "--rho0", "bump:3,0.3,0.7",
                          "--rho1", "bump:3,0.3,0.7", "--n", "16", "--nt", "16")
    assert code == 0
    assert body["iterations"] == 200
    assert body["distance"] < 1e-12


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


def test_flow_horizontal_over_a_zero_density(capsys):
    # zero mass is a valid endpoint: the flow carries no action
    code, body = run_json(capsys, "flow", "horizontal", "--rho0", "const:0",
                          "--phi0", "sin:0.1", "--t-final", "0.1")
    assert code == 0
    assert body["action"] == 0.0
    assert body["mass_initial"] == body["mass_final"] == 0.0
    assert body["horizontality_defect"] < 1e-13


def test_flow_horizontal_past_the_apex_exits_two(capsys):
    # rho = (1 - 2t)^2 reaches the apex at t = 1/2, named exactly
    code, out = run_cli(capsys, "flow", "horizontal", "--rho0", "const:1",
                        "--phi0", "const:-2", "--n", "16", "--t-final", "1")
    assert code == 2
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "RuntimeError"
    assert error["message"] == ("horizontal flow reaches the apex or folds "
                                "at t=0.5 (label y=0)")


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_flow_horizontal_names_the_same_apex_at_any_resolution(capsys,
                                                               tmp_path, n):
    # the label y = pi of this pair reaches the apex at t = 1 exactly
    grid = PeriodicGrid(n)
    rho0, phi0 = tmp_path / "rho0.csv", tmp_path / "phi0.csv"
    write_density_csv(rho0, grid.x, 1.0 + 0.3 * np.sin(grid.x))
    write_density_csv(phi0, grid.x, -0.6 + 0.4 * np.cos(grid.x))
    argv = ("flow", "horizontal", "--rho0", f"file:{rho0}", "--phi0",
            f"file:{phi0}", "--n", str(n))
    code, body = run_json(capsys, *argv, "--t-final", "1")
    assert code == 2
    assert body["error"]["message"].endswith("at t=1 (label y=3.14159)")
    code, body = run_json(capsys, *argv, "--t-final", "0.9")
    assert code == 0 and body["mass_final"] > 0


def test_flow_horizontal_past_the_apex_prints_no_warnings():
    # the exit-2 line reports the overflow; numpy must not add warnings
    result = subprocess.run(
        [sys.executable, "-m", "coneflow.cli", "flow", "horizontal",
         "--rho0", "const:1", "--phi0", "const:-2", "--n", "16",
         "--t-final", "1"], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout.count("\n") == 1
    assert result.stderr == ""


def test_ch_solve_blow_up_prints_no_warnings():
    # the exit-2 line reports the blow-up; numpy must not add warnings
    result = subprocess.run(
        [sys.executable, "-m", "coneflow.cli", "ch", "solve", "--n", "16",
         "--init", "sin:1e200", "--dt", "1e-3", "--t-final", "1"],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert "solution blew up at t=0.001" in result.stdout
    assert result.stderr == ""


def test_lift_solves_symbol_equation(capsys, tmp_path):
    out = tmp_path / "potential.csv"
    code, body = run_json(capsys, "lift", "--rho", "const:1", "--x", "sin:1",
                          "--n", "128", "--out", str(out))
    assert code == 0
    assert body["residual"] < 1e-9
    # the preconditioner inverts the uniform-density operator exactly
    assert body["iterations"] == 1
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


@pytest.mark.parametrize("argv", [
    ("lift", "--x", "sin:1"),
    ("curvature", "--phi1", "sin:1", "--phi2", "const:1"),
], ids=["lift", "curvature"])
def test_lift_stall_exits_two(capsys, argv):
    # a bump floor near 1e-22: conjugate gradients cannot reach 1e-14
    code, body = run_json(capsys, *argv, "--rho", "bump:3.14,0.2,1")
    assert code == 2
    assert body["error"]["type"] == "RuntimeError"
    assert "stalled" in body["error"]["message"]


def test_lift_nan_preconditioner_exits_two(capsys, monkeypatch):
    # NaN inside CG is a solver breakdown (exit 2), not bad input (exit 1)
    monkeypatch.setattr(PeriodicGrid, "solve_helmholtz",
                        lambda self, rhs, a, b: np.full(np.shape(rhs), np.nan))
    code, body = run_json(capsys, "lift", "--rho", "bump:3.0,0.8,1",
                          "--x", "sin:1")
    assert code == 2
    assert body["error"]["type"] == "RuntimeError"
    assert "stalled" in body["error"]["message"]


def test_lift_near_vacuum_residual_exits_two(capsys):
    # min rho 2e-14: CG meets its stop rule with a residual of 5e-2 max|X|
    code, body = run_json(capsys, "lift", "--rho", "bump:3.14,0.25,1",
                          "--x", "sin:1", "--n", "128")
    assert code == 2
    assert body["error"]["type"] == "RuntimeError"
    message = body["error"]["message"]
    assert "stalled" not in message
    assert "residual" in message and "max|X|" in message
    assert "min rho" in message


def test_lift_wide_bump_is_accurate_enough(capsys):
    # min rho 3.6e-6: residual 2.3e-8, inside the 1e-6 max|X| guard
    code, body = run_json(capsys, "lift", "--rho", "bump:3.14,0.4,1",
                          "--x", "sin:1", "--n", "512")
    assert code == 0
    assert body["residual"] < 1e-7


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
    # the Hessian certificate computes the pressure with the (1, 1/2)
    # formula, so the command takes no coefficients to integrate with
    for flag in ("--a", "--b"):
        code, body = run_json(capsys, "minimality", "--init", "sin:0.2",
                              "--t-final", "0.5", "--members", "5",
                              "--seed", "3", flag, "2")
        assert code == 1
        assert body["error"]["type"] == "CLIInputError"


@pytest.mark.parametrize("amplitudes, message", [
    ("0.1,x", "bad numeric list"), ("", "must be positive"),
    (",", "must be positive"), ("0.1,-0.1", "must be positive"),
    ("0", "must be positive")])
def test_minimality_rejects_bad_amplitudes(capsys, amplitudes, message):
    code, body = run_json(capsys, "minimality", "--init", "const:1",
                          "--seed", "1", "--amplitudes", amplitudes)
    assert code == 1
    assert body["error"]["type"] == "CLIInputError"
    assert message in body["error"]["message"]


@pytest.mark.parametrize("times, message", [
    ([0.0], "need at least two time slices"),
    ([0.0, 0.1, 0.3], "not uniformly spaced"),
    # a last step 497 times the others, all far below 1 in absolute terms
    ([0.0, 1e-12, 2e-12, 3e-12, 5e-10], "not uniformly spaced")])
def test_trajectory_files_need_uniform_time_slices(capsys, tmp_path, times,
                                                   message):
    grid = PeriodicGrid(16)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, grid.x, np.zeros((len(times), grid.n)))
    for command in ("euler", "check"), ("ch", "invariants"):
        code, body = run_json(capsys, *command, "--traj", str(path))
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert message in body["error"]["message"]


@pytest.mark.parametrize("row, column, offset, message", [
    (2 * 16 + 15, 1, 2e-5, "space column varies between time blocks"),
    (16 + 5, 0, 4e-6, "time column varies within a time block")],
    ids=["x-in-third-block", "t-in-second-block"])
def test_trajectory_files_are_checked_to_the_stated_tolerance(
        capsys, tmp_path, row, column, offset, message):
    # offsets below numpy's default relative tolerance at these values
    grid = PeriodicGrid(16)
    table = np.zeros((4 * 16, 3))
    table[:, 0] = np.repeat(np.arange(4.0), 16)
    table[:, 1] = np.tile(grid.x, 4)
    table[row, column] += offset
    path = tmp_path / "traj.csv"
    path.write_text("t,x,u\n" + "".join(f"{t!r},{x!r},{u!r}\n"
                                        for t, x, u in table.tolist()))
    for command in ("euler", "check"), ("ch", "invariants"):
        code, body = run_json(capsys, *command, "--traj", str(path))
        assert code == 1
        assert body["error"]["type"] == "ValueError"
        assert message in body["error"]["message"]


@pytest.mark.parametrize("times", [
    np.arange(251) * 1e-3,  # the README run's size
    1e6 + np.arange(4) * 1e-3,  # steps rounded at the scale of t
], ids=["readme-size", "long-horizon"])
def test_uniform_trajectory_files_load(capsys, tmp_path, times):
    grid = PeriodicGrid(16)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, grid.x, np.zeros((len(times), grid.n)))
    code, body = run_json(capsys, "ch", "invariants", "--traj", str(path))
    assert code == 0
    assert body["traj"] == str(path)


def test_package_and_cli_import_load_no_scipy_module():
    # the package needs numpy only; scipy's import alone would double the
    # start-up of every command
    probe = ("import sys\n"
             "def scipy_modules():\n"
             "    return sorted(k for k in sys.modules\n"
             "                  if k == 'scipy' or k.startswith('scipy.'))\n"
             "import coneflow\n"
             "print(scipy_modules())\n"
             "import coneflow.cli\n"
             "print(scipy_modules())\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    assert result.stdout.split("\n") == ["[]", "[]", ""]


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


@pytest.mark.parametrize("argv, error", [
    (("ch", "solve", "--n", "64", "--dt", "1e-3", "--t-final", "4.0",
      "--init", "sin:3.0"), "CHBlowupError"),
    (("wfr", "solve", "--rho0", "bump:2.0,0.8,1.0", "--rho1",
      "bump:4.0,0.6,1.5", "--n", "16", "--nt", "8", "--max-iters", "50"),
     "WFRConvergenceError"),
    (("cone", "geodesic", "--x0", "0", "--m0", "0.0025", "--dx0", "0",
      "--dm0", "-0.1", "--t-final", "0.2", "--dt", "0.02"), "ApexError"),
    (("flow", "horizontal", "--rho0", "const:1", "--phi0", "sin:3",
      "--t-final", "1"), "RuntimeError"),
    (("cone", "geodesic", "--x0", "2.1281965602276824", "--m0",
      "0.031040322559986587", "--dx0", "1.789755925104934e-05", "--dm0",
      "-0.21777909747381963", "--t-final", "1", "--dt", "0.05"),
     "ApexError"),
], ids=["blowup", "max-iters", "apex", "lost-positivity", "apex-oblique"])
def test_solver_breakdown_exits_two_with_one_json_line(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == error


@pytest.mark.parametrize("argv", [
    ("--x0", "0.3", "--m0", "0.32648481991983835", "--dx0",
     "0.0006725266339168693", "--dm0", "-0.7678231382637578", "--dt", "0.01"),
    ("--x0", "3.4468", "--m0", "0.2323", "--dx0", "0.005448", "--dm0",
     "-0.768", "--dt", "0.1"),
], ids=["apex-overflow", "apex-drift"])
def test_close_pass_by_the_apex_exits_zero(capsys, argv):
    # a fixed RK4 step overflowed on the first shot and drifted on the
    # second; the exact path stays outside the floor
    code, body = run_json(capsys, "cone", "geodesic", "--t-final", "1", *argv)
    assert code == 0
    assert body["speed_drift"] < 1e-12


@pytest.mark.parametrize("argv", [
    ("lift", "--rho", "const:1", "--x", "const:nan"),
    ("lift", "--rho", "const:1", "--x", "sin:inf"),
    ("curvature", "--phi1", "sin:1", "--phi2", "const:nan"),
    ("ch", "solve", "--init", "const:nan"),
    ("wfr", "hellinger", "--rho0", "bump:1,inf,1", "--rho1", "const:1"),
], ids=["lift-nan", "lift-inf", "curvature-nan", "ch-nan", "bump-inf"])
def test_non_finite_field_specs_exit_one(capsys, argv):
    code, body = run_json(capsys, *argv)
    assert code == 1
    assert body["error"]["type"] == "ValueError"
    assert "non-finite" in body["error"]["message"]


def test_field_spec_with_a_wrong_count_of_numbers_exits_one(capsys):
    code, body = run_json(capsys, "wfr", "hellinger", "--rho0", "const:1,2",
                          "--rho1", "const:1")
    assert code == 1
    assert body["error"]["message"] == "const spec needs c: 'const:1,2'"


@pytest.mark.parametrize("argv", [
    ("cone", "dist", "--x0", "0", "--m0", "1", "--x1", "1", "--m1", "1",
     "--a", "nan"),
    ("cone", "dist", "--x0", "0", "--m0", "1", "--x1", "1", "--m1", "1",
     "--b", "inf"),
    ("wfr", "hellinger", "--rho0", "const:1", "--rho1", "const:2",
     "--a", "nan"),
    ("ch", "solve", "--n", "16", "--dt", "1e-2", "--t-final", "0.1",
     "--init", "sin:0.1", "--b", "nan"),
    ("wfr", "solve", "--rho0", "const:1", "--rho1", "const:2", "--n", "16",
     "--nt", "8", "--a", "inf"),
    ("cone", "geodesic", "--x0", "0", "--m0", "1", "--dx0", "0",
     "--dm0", "0.5", "--t-final", "inf"),
    ("ch", "solve", "--init", "sin:0.1", "--t-final", "inf"),
    ("minimality", "--init", "const:1", "--seed", "1", "--t-final", "inf"),
    ("flow", "horizontal", "--rho0", "const:1", "--phi0", "const:0.1",
     "--t-final", "inf"),
], ids=["cone-a-nan", "cone-b-inf", "hellinger-a-nan", "ch-b-nan",
        "wfr-a-inf", "geodesic-inf", "ch-inf", "minimality-inf",
        "flow-inf"])
def test_non_finite_coefficients_and_horizons_exit_one(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv, message", [
    (("ch", "solve", "--n", "16", "--dt", "0.01", "--t-final", "0.1",
      "--init", "sin:0.1", "--a", "1e200"), "cone parameter a"),
    (("wfr", "solve", "--rho0", "const:1", "--rho1", "const:2", "--n", "16",
      "--nt", "8", "--a", "1e200"), "cone parameter a"),
    (("cone", "dist", "--x0", "0", "--m0", "1", "--x1", "1", "--m1", "1",
      "--b", "1e-200"), "cone parameter b"),
    (("wfr", "solve", "--rho0", "const:1e-14", "--rho1", "const:2e-14",
      "--n", "16", "--nt", "8"), "1e-10"),
    (("wfr", "solve", "--rho0", "const:1e-20", "--rho1", "const:0",
      "--n", "16", "--nt", "8"), "1e-10"),
    (("wfr", "solve", "--rho0", "const:1", "--rho1", "const:2", "--n", "16",
      "--nt", "8", "--b", "1e-150"), "underflow to zero"),
], ids=["ch-a-overflows", "wfr-a-overflows", "cone-b-underflows",
        "wfr-mass-1e-14", "wfr-mass-1e-20", "wfr-prox-b-underflows"])
def test_out_of_range_coefficients_and_tiny_masses_exit_one(capsys, argv,
                                                            message):
    # before: a traceback (OverflowError), a distance of 0, or a
    # "converged" distance wrong by orders of magnitude
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and message in error["message"]


def test_wfr_solve_runs_where_the_prox_squares_are_subnormal(capsys):
    # at b = 1e-80, (2 gamma b^2)^2 is subnormal, not zero: the solve runs
    # and its distance scales with b from the one at b = 1e-60
    argv = ("wfr", "solve", "--rho0", "const:1", "--rho1", "const:2",
            "--n", "16", "--nt", "8", "--b")
    code, tiny = run_json(capsys, *argv, "1e-80")
    assert code == 0
    code, small = run_json(capsys, *argv, "1e-60")
    assert code == 0
    assert tiny["distance"] == pytest.approx(1e-20 * small["distance"],
                                             rel=1e-12)


@pytest.mark.parametrize("argv, error", [
    (("ch", "solve", "--init", "sin:0.1", "--t-final", "1e300",
      "--dt", "1e-300"), "ValueError"),
    (("ch", "solve", "--n", "64", "--t-final", "1", "--dt", "1e-12",
      "--init", "sin:0.1"), "MemoryError"),
    (("cone", "geodesic", "--x0", "0", "--m0", "1", "--dx0", "0.3",
      "--dm0", "-0.1", "--t-final", "1", "--dt", "1e-300"), "ValueError"),
], ids=["ch-overflowing-ratio", "ch-too-many-slices", "geodesic-tiny-dt"])
def test_horizons_beyond_float_or_memory_exit_one(capsys, argv, error):
    # t_final/dt overflows, or its slices cannot be stored: refused up front
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == error


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
    # stopping parameters that could never stop are refused up front
    for flag, value in (("--max-iters", "0"), ("--tol", "nan")):
        code, body = run_json(capsys, "wfr", "solve", "--rho0", "const:1",
                              "--rho1", "const:2", "--n", "16", "--nt", "8",
                              flag, value)
        assert code == 1
        assert body["error"]["type"] == "CLIInputError"
        assert flag in body["error"]["message"]
    # (2 gamma a^2)^2 overflows in the prox: a JSON line, not a traceback
    code, body = run_json(capsys, "wfr", "solve", "--rho0", "const:1",
                          "--rho1", "const:2", "--n", "16", "--nt", "8",
                          "--a", "1e77")
    assert code == 1
    assert body["error"]["type"] == "ValueError"
    assert "finite squares" in body["error"]["message"]


def test_control_character_in_an_error_gives_a_json_line(capsys, tmp_path):
    # the CSV row is quoted in the message, and its U+0001 must be escaped
    x = PeriodicGrid(8).x
    rows = [f"{v:.17g},{np.sin(v):.17g}" for v in x]
    rows[1] = "0.7853981633974483,1\x012"
    path = tmp_path / "ctl.csv"
    path.write_text("x,value\n" + "\n".join(rows) + "\n")
    code, out = run_cli(capsys, "ch", "solve", "--n", "8", "--dt", "0.1",
                        "--t-final", "0.1", "--init", f"file:{path}")
    assert code == 1
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == (f"{path}: non-numeric value in "
                                f"'0.7853981633974483,1\x012'")


def test_non_finite_radii_and_amplitudes_exit_one(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    run_json(capsys, "ch", "solve", "--n", "64", "--dt", "1e-2",
             "--t-final", "0.05", "--init", "sin:0.1", "--out", str(out))
    # 1e100 and 1e-100 put r^4 or r^-4 out of floating-point range
    for radii in ("nan", "0.5,inf", "0.5,1,nan", "", "0.5,-1", "1e100",
                  "0.5,1e-100"):
        code, out_text = run_cli(capsys, "euler", "check", "--traj", str(out),
                                 "--radii", radii)
        body = json.loads(out_text)
        assert code == 1, radii
        assert out_text.count("\n") == 1
        assert "reduction" not in body["error"]["message"]
    for amplitudes in ("nan", "0.01,inf"):
        code, body = run_json(capsys, "minimality", "--init", "const:1",
                              "--members", "2", "--seed", "1",
                              "--amplitudes", amplitudes)
        assert code == 1, amplitudes
        assert body["error"]["type"] == "CLIInputError"


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
