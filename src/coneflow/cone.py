"""The metric cone over the circle in mass coordinates.

Points are (x, m) with x an angle and m >= 0 the mass coordinate; m = 0 is
the apex.  The metric is a^2 m g + b^2 dm^2 / m, which in the radial
variable r = 2 b sqrt(m) is the standard cone metric (a/2b)^2 r^2 g + dr^2.
For a = 2b the cone is isometric to the punctured plane and the planar
chart below is global; for every (a, b) the cone is flat off the apex,
so geodesics are lines in the developed chart, evaluated in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import circle_distance, step_count, wrap

APEX_FLOOR = 1e-12


class ApexError(RuntimeError):
    """A point, chart or geodesic segment at the apex floor m <= 1e-12."""


@dataclass(frozen=True)
class ConeParams:
    """Weights of the cone metric a^2 m g + b^2 dm^2/m."""

    a: float = 1.0
    b: float = 0.5

    def __post_init__(self):
        if not (0 < self.a < np.inf and 0 < self.b < np.inf):  # NaN fails
            raise ValueError("cone parameters a, b must be finite and "
                             "positive")
        # every formula weights by a^2 and b^2: an overflowing square is an
        # OverflowError or inf downstream, an underflowing one a silent 0
        for name, value in (("a", self.a), ("b", self.b)):
            if not np.finfo(float).tiny <= value * value < np.inf:
                raise ValueError(
                    f"cone parameter {name}={value!r} is out of range: its "
                    f"square must be a normal float, so {name} must lie in "
                    f"about [1.5e-154, 1.3e154]")

    @property
    def half_ratio(self) -> float:
        # angular dilation of the planar chart; chart is global iff this is 1
        return self.a / (2.0 * self.b)


@dataclass(frozen=True)
class ConePoint:
    x: float
    m: float

    def __post_init__(self):
        if not np.isfinite(self.x) or not np.isfinite(self.m):
            raise ValueError("cone point coordinates must be finite")
        if self.m < 0:
            raise ValueError("mass coordinate must be nonnegative")

    @property
    def is_apex(self) -> bool:
        return self.m <= APEX_FLOOR


@dataclass(frozen=True)
class ConeTangent:
    dx: float
    dm: float


@dataclass(frozen=True)
class ConeGeodesic:
    """Sampled solution of the geodesic equations in mass coordinates."""

    times: np.ndarray
    x: np.ndarray
    m: np.ndarray
    dx: np.ndarray
    dm: np.ndarray
    speed: float
    speed_drift: float

    @property
    def endpoint(self) -> ConePoint:
        return ConePoint(wrap(self.x[-1]), self.m[-1])


def cone_metric(p: ConePoint, v: ConeTangent, w: ConeTangent,
                params: ConeParams = ConeParams()) -> float:
    """Inner product a^2 m dx dx' + b^2 dm dm' / m at p (m > 0)."""
    if p.m <= APEX_FLOOR:
        raise ApexError("cone metric is singular at the apex")
    return (params.a ** 2 * p.m * v.dx * w.dx
            + params.b ** 2 * v.dm * w.dm / p.m)


def cone_distance(p1: ConePoint, p2: ConePoint,
                  params: ConeParams = ConeParams()) -> float:
    """Closed-form distance on the cone over the circle.

    With theta = min((a/2b) d_circ, pi), the law of cosines
    d^2 = 4 b^2 (m1 + m2 - 2 sqrt(m1 m2) cos theta) is evaluated as
    d^2 = 4 b^2 ((sqrt m1 - sqrt m2)^2 + 4 sqrt(m1 m2) sin^2(theta/2)),
    which has no cancellation between near points.
    """
    ang = min(params.half_ratio * circle_distance(p1.x, p2.x), np.pi)
    s1, s2 = math.sqrt(p1.m), math.sqrt(p2.m)
    return 2.0 * params.b * math.sqrt(
        (s1 - s2) ** 2 + 4.0 * s1 * s2 * math.sin(0.5 * ang) ** 2)


def planar_chart(p: ConePoint, params: ConeParams = ConeParams()) -> np.ndarray:
    """Map (x, m) to the plane: radius 2 b sqrt(m), angle (a/2b) x.

    The chart is a global isometry onto the punctured plane iff a = 2b;
    otherwise one turn of the base sweeps the angle (a/2b) 2 pi.
    """
    if p.is_apex:
        raise ApexError("planar chart is undefined at the apex")
    r = 2.0 * params.b * np.sqrt(p.m)
    theta = params.half_ratio * p.x
    return np.array([r * np.cos(theta), r * np.sin(theta)])


@np.errstate(over="ignore", invalid="ignore")  # ConePoint rejects inf mass
def cone_geodesic(p0: ConePoint, v0: ConeTangent, t_final: float, dt: float,
                  params: ConeParams = ConeParams()) -> ConeGeodesic:
    """Sample the geodesic from p0 with velocity v0 at the times k*dt.

    With theta = (a/2b) x unwrapped, the chart r = 2b sqrt(m) is flat for
    every (a, b), so the geodesic is the line (r0, 0) + t V with
    V = (b dm0/sqrt(m0), r0 (a/2b) dx0); it sweeps less than pi.  Raises
    ApexError, with the entry time, if it comes within the mass floor.
    """
    n_steps = step_count(t_final, dt)
    if p0.is_apex:
        raise ApexError("geodesic initial point is at the apex")
    b, kappa = params.b, params.half_ratio
    r0, r_floor = 2.0 * b * math.sqrt(p0.m), 2.0 * b * math.sqrt(APEX_FLOOR)
    vr, vt = b * v0.dm / math.sqrt(p0.m), r0 * kappa * v0.dx
    speed = math.hypot(vr, vt)  # |V|, the conserved cone speed
    # closest approach of the segment to the origin, then its floor entry
    t_foot = -(r0 / speed) * (vr / speed) if speed > 0 else 0.0
    t_near = min(max(t_foot, 0.0), t_final)
    if math.hypot(r0 + t_near * vr, t_near * vt) <= r_floor:
        gap = r0 * (vt / speed)  # distance of the line from the origin
        t_hit = t_foot - math.sqrt(max(r_floor ** 2 - gap * gap, 0.0)) / speed
        raise ApexError(f"geodesic reaches the apex floor at t={t_hit:.12g}")
    times = np.arange(n_steps + 1) * dt
    px, py = r0 + times * vr, times * vt
    p2 = px * px + py * py
    x, m = p0.x + np.arctan2(py, px) / kappa, p2 / (4 * b * b)
    dx = r0 * vt / (kappa * p2)  # P x V = r0 vt is conserved
    dm = (px * vr + py * vt) / (2 * b * b)
    end, vend = ConePoint(x[-1], m[-1]), ConeTangent(dx[-1], dm[-1])
    speed_end = math.sqrt(cone_metric(end, vend, vend, params))
    drift = abs(speed_end - speed) / max(speed, 1e-300)
    return ConeGeodesic(times, x, m, dx, dm, speed, drift)
