"""Command-line front end.

Every subcommand prints one JSON object to stdout with a fixed field
order and 17-significant-digit floats, so identical inputs produce
byte-identical output.  CSV artifacts are written next to the current
directory unless CONEFLOW_OUTDIR points elsewhere.  Exit codes: 0 on
success, 1 on invalid input (machine-readable error object), including
a horizon with more steps than memory can hold, 2 when a solver breaks
down (blow-up, non-convergence, apex hit, lost positivity).
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .cone import (ConeParams, ConePoint, ConeTangent, cone_distance,
                   cone_geodesic)
from .ch import CHTrajectory, ch_invariants, ch_solve, flow_map
from .euler import (AnnulusGrid, euler_residual, geodesic_form_consistency,
                    lagrangian_measure_check)
from .formats import (grid_from_x, parse_field_spec, read_trajectory_csv,
                      to_json, write_columns_csv, write_density_csv,
                      write_time_major_csv, write_trajectory_csv,
                      write_wfr_csv)
from .grid import PeriodicGrid
from .group import DensityField, VelocityPair
from .submersion import (horizontal_lift, make_perturbation_family,
                         minimality_test, oneill_curvature)
from .wfr import hellinger_distance, horizontal_flow, solve_wfr


class CLIInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit-code-1 errors.

    Options must be spelled out: with prefix matching, a removed or
    mistyped option such as --a would silently bind to --amplitudes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CLIInputError(message)


def _out_path(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get("CONEFLOW_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _add_params(p):
    p.add_argument("--a", type=float, default=1.0,
                   help="transport coefficient (default 1)")
    p.add_argument("--b", type=float, default=0.5,
                   help="growth coefficient (default 0.5)")


def _require_positive(args, names):
    for name in names:
        if not getattr(args, name) > 0:  # NaN fails too
            raise CLIInputError(f"--{name.replace('_', '-')} must be positive")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise CLIInputError(f"bad numeric list '{text}'") from exc
    if not np.all(np.isfinite(values)):
        raise CLIInputError(f"non-finite value in numeric list '{text}'")
    return values


# -- cone ---------------------------------------------------------------------


def cmd_cone_dist(args):
    params = ConeParams(args.a, args.b)
    d = cone_distance(ConePoint(args.x0, args.m0), ConePoint(args.x1, args.m1),
                      params)
    return {"x0": args.x0, "m0": args.m0, "x1": args.x1, "m1": args.m1,
            "a": params.a, "b": params.b, "distance": d}


def cmd_cone_geodesic(args):
    params = ConeParams(args.a, args.b)
    _require_positive(args, ["t_final", "dt"])
    geo = cone_geodesic(ConePoint(args.x0, args.m0),
                        ConeTangent(args.dx0, args.dm0),
                        args.t_final, args.dt, params)
    out = _out_path(args.csv)
    if out:
        write_columns_csv(out, "t,x,m", [geo.times, geo.x, geo.m])
    end = geo.endpoint
    return {"x0": args.x0, "m0": args.m0, "dx0": args.dx0, "dm0": args.dm0,
            "t_final": args.t_final, "dt": args.dt, "a": params.a,
            "b": params.b, "x": end.x, "m": end.m,
            "speed_drift": geo.speed_drift, "out": out}


# -- camassa-holm style solver --------------------------------------------------


def _drift_report(grid: PeriodicGrid, u: np.ndarray,
                  params: ConeParams) -> dict:
    """Energy and momentum at the first and last of the slices u (T, n),
    with the largest relative drift from the first over all of them."""
    values = ch_invariants(grid, u, params)
    report = {}
    # zero-mean data has a roundoff-level momentum baseline; drift is then
    # reported against the unit scale instead of amplified noise
    for name, key, floor in (("energy", "energy", 1e-30),
                             ("momentum", "momentum_mean", 1.0)):
        q = np.array(values[key])
        report[f"{name}_initial"] = float(q[0])
        report[f"{name}_final"] = float(q[-1])
        report[f"{name}_rel_drift"] = float(np.max(np.abs(q - q[0]))
                                            / max(abs(q[0]), floor))
    return report


def cmd_ch_solve(args):
    params = ConeParams(args.a, args.b)
    _require_positive(args, ["n", "t_final", "dt"])
    grid = PeriodicGrid(args.n)
    u0 = parse_field_spec(args.init, grid)
    traj = ch_solve(grid, u0, args.t_final, args.dt, params)
    out = _out_path(args.out)
    if out:
        write_trajectory_csv(out, traj.times, grid.x, traj.u)
    return {"n": args.n, "dt": args.dt, "t_final": args.t_final,
            "a": params.a, "b": params.b, "init": args.init,
            **_drift_report(grid, traj.u, params), "out": out}


def _load_trajectory(path, params) -> CHTrajectory:
    times, x, u = read_trajectory_csv(path)
    grid = grid_from_x(x)
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two time slices")
    steps = np.diff(times)
    dt = float(steps[0])
    # relative to dt, with a floor for the rounding of the t column
    tol = 1e-9 * dt + 4 * np.finfo(float).eps * np.max(np.abs(times))
    if dt <= 0 or np.max(np.abs(steps - dt)) > tol:
        raise ValueError(f"{path}: time column is not uniformly spaced")
    return CHTrajectory(grid, params, dt, times, u)


def cmd_ch_invariants(args):
    params = ConeParams(args.a, args.b)
    traj = _load_trajectory(args.traj, params)
    return {"traj": args.traj, "a": params.a, "b": params.b,
            **_drift_report(traj.grid, traj.u, params)}


# -- euler correspondence -------------------------------------------------------


def cmd_euler_check(args):
    traj = _load_trajectory(args.traj, ConeParams())
    agrid = AnnulusGrid(traj.grid, _float_list(args.radii))
    report = euler_residual(traj, agrid)
    path = flow_map(traj)
    measure = lagrangian_measure_check(path, agrid.radii)
    forms = geodesic_form_consistency(traj, path)
    return {"traj": args.traj, "radii": agrid.radii.tolist(),
            "max_div": report.max_div,
            "max_momentum_residual": report.max_momentum_residual,
            "det_residual": measure.det_residual,
            "pushforward_residual": measure.pushforward_residual,
            "equivalence_gap": measure.equivalence_gap,
            "form_angular_gap": forms.angular_gap,
            "form_radial_gap": forms.radial_gap,
            "isotropy_residual": path.isotropy_residual}


# -- wfr ------------------------------------------------------------------------


def cmd_wfr_solve(args):
    params = ConeParams(args.a, args.b)
    _require_positive(args, ["n", "nt", "tol", "max_iters"])
    grid = PeriodicGrid(args.n)
    rho0 = parse_field_spec(args.rho0, grid)
    rho1 = parse_field_spec(args.rho1, grid)
    result = solve_wfr(rho0, rho1, args.nt, params, balanced=args.balanced,
                       tol=args.tol, max_iters=args.max_iters)
    out = _out_path(args.csv)
    if out:
        g = result.grid
        write_wfr_csv(out, g.t_cells, g.x, result.rho_c, result.m_c,
                      result.mu_c)
    return {"distance": result.distance, "action": result.action,
            "iterations": result.iterations,
            "constraint_residual": result.constraint_residual,
            "params": {"a": params.a, "b": params.b, "nt": args.nt,
                       "nx": args.n, "balanced": args.balanced,
                       "tol": args.tol, "max_iters": args.max_iters},
            "out": out}


def cmd_wfr_hellinger(args):
    params = ConeParams(args.a, args.b)
    _require_positive(args, ["n"])
    grid = PeriodicGrid(args.n)
    rho0 = parse_field_spec(args.rho0, grid)
    rho1 = parse_field_spec(args.rho1, grid)
    d = hellinger_distance(grid, rho0, rho1, params)
    return {"distance": d,
            "params": {"a": params.a, "b": params.b, "n": args.n}}


# -- geodesic flows ---------------------------------------------------------------


def cmd_flow_horizontal(args):
    _require_positive(args, ["n", "t_final", "dt"])
    grid = PeriodicGrid(args.n)
    rho0 = parse_field_spec(args.rho0, grid)
    phi0 = parse_field_spec(args.phi0, grid)
    flow = horizontal_flow(grid, rho0, phi0, args.t_final, args.dt)
    out = _out_path(args.csv)
    if out:
        write_time_major_csv(out, "t,x,rho,v,alpha", flow.times, grid.x,
                             [flow.rho, flow.v, flow.alpha])
    return {"n": args.n, "dt": args.dt, "t_final": args.t_final,
            "rho0": args.rho0, "phi0": args.phi0,
            "action": flow.action,
            "horizontality_defect": flow.horizontality_defect,
            "mass_initial": float(flow.mass[0]),
            "mass_final": float(flow.mass[-1]), "out": out}


# -- submersion reports -----------------------------------------------------------


def cmd_lift(args):
    _require_positive(args, ["n"])
    grid = PeriodicGrid(args.n)
    rho = DensityField(grid, parse_field_spec(args.rho, grid))
    x_rho = parse_field_spec(args.x, grid)
    lift = horizontal_lift(rho, x_rho)
    out = _out_path(args.out)
    if out:
        write_density_csv(out, grid.x, lift.potential)
    return {"n": args.n, "rho": args.rho, "x": args.x,
            "residual": lift.residual, "iterations": lift.iterations,
            "potential_min": float(np.min(lift.potential)),
            "potential_max": float(np.max(lift.potential)), "out": out}


def cmd_curvature(args):
    _require_positive(args, ["n"])
    grid = PeriodicGrid(args.n)
    rho = DensityField(grid, parse_field_spec(args.rho, grid))
    pairs = []
    for spec in (args.phi1, args.phi2):
        phi = parse_field_spec(spec, grid)
        pairs.append(VelocityPair(grid, 0.5 * grid.deriv(phi), phi))
    k = oneill_curvature(pairs[0], pairs[1], rho)
    return {"n": args.n, "rho": args.rho, "phi1": args.phi1,
            "phi2": args.phi2, "oneill": k}


def cmd_minimality(args):
    _require_positive(args, ["n", "t_final", "dt", "members"])
    amplitudes = tuple(_float_list(args.amplitudes))
    if not amplitudes or min(amplitudes) <= 0:
        raise CLIInputError("--amplitudes must be positive")
    grid = PeriodicGrid(args.n)
    u0 = parse_field_spec(args.init, grid)
    traj = ch_solve(grid, u0, args.t_final, args.dt)
    family = make_perturbation_family(grid, traj.times, args.members,
                                      args.seed)
    report = minimality_test(traj, family, amplitudes)
    geodesic_below = bool(report.geodesic_action
                          <= report.min_competitor_action)
    return {"n": args.n, "dt": args.dt, "t_final": args.t_final,
            "init": args.init, "members": args.members, "seed": args.seed,
            "amplitudes": list(amplitudes),
            "hessian_bound": report.hessian_bound,
            "window": report.window,
            "window_ok": report.window_ok,
            "note": None if report.window_ok else "window violated",
            "geodesic_action": report.geodesic_action,
            "min_competitor_action": report.min_competitor_action,
            "geodesic_below_all": geodesic_below}


# -- wiring -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="coneflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    cone = sub.add_parser("cone", help="cone-of-the-circle geometry")
    cone_sub = cone.add_subparsers(dest="subcommand", required=True,
                                   parser_class=_Parser)
    p = cone_sub.add_parser("dist", help="closed-form distance")
    for name in ("x0", "m0", "x1", "m1"):
        p.add_argument(f"--{name}", type=float, required=True)
    _add_params(p)
    p.set_defaults(func=cmd_cone_dist)
    p = cone_sub.add_parser("geodesic", help="geodesic shooting")
    for name in ("x0", "m0", "dx0", "dm0"):
        p.add_argument(f"--{name}", type=float, required=True)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--csv", default=None, help="write t,x,m series")
    _add_params(p)
    p.set_defaults(func=cmd_cone_geodesic)

    ch = sub.add_parser("ch", help="geodesic PDE on the group")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True,
                               parser_class=_Parser)
    p = ch_sub.add_parser("solve", help="integrate and store a trajectory")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--init", required=True,
                   help="const:c | sin:amp | bump:c,w,m | file:path")
    p.add_argument("--out", default=None, help="trajectory csv path")
    _add_params(p)
    p.set_defaults(func=cmd_ch_solve)
    p = ch_sub.add_parser("invariants", help="conservation report for a run")
    p.add_argument("--traj", required=True)
    _add_params(p)
    p.set_defaults(func=cmd_ch_invariants)

    euler = sub.add_parser("euler", help="incompressible-flow correspondence")
    euler_sub = euler.add_subparsers(dest="subcommand", required=True,
                                     parser_class=_Parser)
    p = euler_sub.add_parser("check", help="residual report for a run")
    p.add_argument("--traj", required=True)
    p.add_argument("--radii", default="0.5,1,2")
    p.set_defaults(func=cmd_euler_check)

    wfr = sub.add_parser("wfr", help="unbalanced transport distance")
    wfr_sub = wfr.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
    p = wfr_sub.add_parser("solve", help="primal-dual distance solver")
    p.add_argument("--rho0", required=True)
    p.add_argument("--rho1", required=True)
    p.add_argument("--n", type=int, default=64, help="space cells")
    p.add_argument("--nt", type=int, default=32, help="time cells")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-iters", type=int, default=50000)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--csv", default=None, help="write t,x,rho,m,mu series")
    _add_params(p)
    p.set_defaults(func=cmd_wfr_solve)
    p = wfr_sub.add_parser("hellinger", help="zero-transport upper bound")
    p.add_argument("--rho0", required=True)
    p.add_argument("--rho1", required=True)
    p.add_argument("--n", type=int, default=64)
    _add_params(p)
    p.set_defaults(func=cmd_wfr_hellinger)

    flow = sub.add_parser("flow", help="geodesic flows on densities")
    flow_sub = flow.add_subparsers(dest="subcommand", required=True,
                                   parser_class=_Parser)
    p = flow_sub.add_parser("horizontal", help="horizontally launched geodesic")
    p.add_argument("--rho0", required=True)
    p.add_argument("--phi0", required=True,
                   help="initial potential (field spec)")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--csv", default=None, help="write t,x,rho,v,alpha series")
    p.set_defaults(func=cmd_flow_horizontal)

    p = sub.add_parser("lift", help="horizontal lift of a density change")
    p.add_argument("--rho", required=True)
    p.add_argument("--x", required=True, help="density perturbation spec")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--out", default=None, help="potential csv path")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("curvature", help="sectional curvature of a plane")
    p.add_argument("--rho", default="const:1")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--n", type=int, default=128)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("minimality", help="action comparison on a window")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--init", required=True)
    p.add_argument("--members", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--amplitudes", default="0.01,0.1")
    p.set_defaults(func=cmd_minimality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
    except RuntimeError as exc:
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        diag = getattr(exc, "diagnostics", None)
        if diag:
            body["error"]["diagnostics"] = diag
        print(to_json(body))
        return 2
    except (CLIInputError, ValueError, OSError, MemoryError) as exc:
        print(to_json({"error": {"type": type(exc).__name__,
                                 "message": str(exc)}}))
        return 1
    print(to_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
