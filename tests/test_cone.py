"""Cone over the circle: closed-form distance, geodesics, planar isometry."""
import numpy as np
import pytest

from coneflow import (
    ApexError,
    ConeParams,
    ConePoint,
    ConeTangent,
    cone_distance,
    cone_geodesic,
    cone_metric,
    planar_chart,
)
from coneflow.cone import APEX_FLOOR
from coneflow.grid import circle_distance, step_count
from rk4_oracle import tuple_rk4_step

P = ConeParams()  # a = 1, b = 1/2: the chart is a global isometry


def random_points(rng, size, m_lo=0.05, m_hi=4.0):
    xs = rng.uniform(0, 2 * np.pi, size)
    ms = rng.uniform(m_lo, m_hi, size)
    return xs, ms


def test_distance_identical_points_is_zero():
    for p, params in ((ConePoint(0.0, 1.0), P), (ConePoint(1.0, 1.7), P),
                      (ConePoint(5.0, 3e-7), ConeParams(1.0, 1e8))):
        assert cone_distance(p, p, params) == 0.0


def test_distance_between_near_points_keeps_its_digits():
    # the exact distance 2 sin(gap / 2) is the stored separation gap to
    # 4e-20 relative
    p, q = ConePoint(1.0, 1.0), ConePoint(1.0 + 1e-9, 1.0)
    assert cone_distance(p, q, P) == pytest.approx(q.x - p.x, rel=1e-12, abs=0)


def test_distance_antipodal_unit_masses():
    # 4b^2 = 1, cos(pi) = -1: d^2 = 1 + 1 + 2 = 4
    d = cone_distance(ConePoint(0.0, 1.0), ConePoint(np.pi, 1.0), P)
    assert d == pytest.approx(2.0, abs=1e-14)


def test_distance_to_apex_is_radial():
    apex = ConePoint(0.3, 0.0)
    for m in (0.25, 1.0, 3.7):
        d = cone_distance(ConePoint(1.1, m), apex, P)
        assert d == pytest.approx(2 * P.b * np.sqrt(m), abs=1e-14)
    # both at the apex: identified regardless of angle
    assert cone_distance(ConePoint(0.0, 0.0), ConePoint(2.0, 0.0), P) == 0.0


def test_distance_quarter_turn():
    # d^2 = 2 - 2 cos(pi/4) = 2 - sqrt(2), the planar chord 2 sin(pi/8)
    d = cone_distance(ConePoint(0.0, 1.0), ConePoint(np.pi / 4, 1.0), P)
    assert d == pytest.approx(np.sqrt(2.0 - np.sqrt(2.0)), abs=1e-14)
    assert d == pytest.approx(2 * np.sin(np.pi / 8), abs=1e-14)


def test_distance_matches_planar_chart_on_random_pairs():
    rng = np.random.default_rng(10)
    xs1, ms1 = random_points(rng, 10_000)
    xs2, ms2 = random_points(rng, 10_000)
    worst = 0.0
    for x1, m1, x2, m2 in zip(xs1, ms1, xs2, ms2):
        p1, p2 = ConePoint(x1, m1), ConePoint(x2, m2)
        chord = float(np.linalg.norm(planar_chart(p1, P) - planar_chart(p2, P)))
        worst = max(worst, abs(chord - cone_distance(p1, p2, P)))
    assert worst < 1e-12


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(11)
    xs, ms = random_points(rng, 3 * 10_000)
    pts = [ConePoint(x, m) for x, m in zip(xs, ms)]
    for i in range(10_000):
        p, q, r = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        dpq = cone_distance(p, q, P)
        assert dpq == cone_distance(q, p, P)
        assert cone_distance(p, r, P) <= dpq + cone_distance(q, r, P) + 1e-12


def test_distance_mass_scaling():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x1, x2 = rng.uniform(0, 2 * np.pi, 2)
        m1, m2 = rng.uniform(0.05, 4.0, 2)
        sigma = rng.uniform(0.1, 10.0)
        d = cone_distance(ConePoint(x1, m1), ConePoint(x2, m2), P)
        ds = cone_distance(ConePoint(x1, sigma * m1), ConePoint(x2, sigma * m2), P)
        assert abs(ds - np.sqrt(sigma) * d) < 1e-12 * max(1.0, ds)


def test_distance_angle_saturates_beyond_cut():
    # with a = 2b the angular factor is capped at pi
    wide = ConeParams(a=4.0, b=0.5)  # half_ratio 4: cut at separation pi/4
    d_cut = cone_distance(ConePoint(0.0, 1.0), ConePoint(np.pi / 2, 1.0), wide)
    d_far = cone_distance(ConePoint(0.0, 1.0), ConePoint(np.pi, 1.0), wide)
    assert d_cut == pytest.approx(d_far, abs=1e-14)
    assert d_cut == pytest.approx(2 * np.sqrt(2 * wide.b ** 2 * 2), abs=1e-12)


def test_planar_chart_basepoint_and_roundtrip():
    assert np.allclose(planar_chart(ConePoint(0.0, 1.0), P), [1.0, 0.0],
                       atol=1e-15)
    rng = np.random.default_rng(13)
    xs, ms = random_points(rng, 1000)
    worst = 0.0
    for x, m in zip(xs, ms):
        px, py = planar_chart(ConePoint(x, m), P)
        x_back = np.arctan2(py, px) % (2 * np.pi)  # the angle is x at (1, 1/2)
        worst = max(worst, circle_distance(x_back, x), abs(px * px + py * py - m))
    assert worst < 1e-12


def test_planar_chart_rejects_apex():
    with pytest.raises(ApexError):
        planar_chart(ConePoint(0.0, 0.0), P)


def test_geodesic_radial_ray():
    # no angular velocity: x frozen, sqrt(m) affine in t
    geo = cone_geodesic(ConePoint(1.0, 1.0), ConeTangent(0.0, 4.0), 0.5, 1e-3, P)
    assert np.max(np.abs(geo.x - 1.0)) < 1e-12
    # b dm/sqrt(m) = speed: sqrt(m(t)) = 1 + 2 b t dm/2 ... check against chart
    r = 2 * P.b * np.sqrt(geo.m)
    r_rate = P.b * 4.0 / np.sqrt(1.0)  # d/dt (2 b sqrt(m)) at t = 0
    assert np.max(np.abs(r - (r[0] + r_rate * geo.times))) < 1e-10
    assert geo.speed_drift < 1e-10


def test_geodesic_matches_planar_straight_line():
    # chart image of the geodesic is a straight line traversed affinely
    p0 = ConePoint(0.0, 1.0)
    v0 = ConeTangent(1.0, 0.0)
    geo = cone_geodesic(p0, v0, 1.0, 1e-3, P)
    z0 = planar_chart(p0, P)
    # chart velocity of (dx, dm) at (x, m): d/dt [2b sqrt(m) e^{i x a/2b}]
    zdot = np.array([0.0, 2 * P.b * np.sqrt(p0.m) * P.half_ratio * v0.dx])
    worst = 0.0
    for t, x, m in zip(geo.times, geo.x, geo.m):
        chart = planar_chart(ConePoint(x, m), P)
        line = z0 + t * zdot
        worst = max(worst, float(np.max(np.abs(chart - line))))
    assert worst < 1e-8


def test_geodesic_endpoint_distance_matches_closed_form():
    rng = np.random.default_rng(14)
    for _ in range(5):
        p0 = ConePoint(rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0))
        v0 = ConeTangent(rng.normal(0, 0.5), rng.normal(0, 0.5))
        speed = np.sqrt(cone_metric(p0, v0, v0, P))
        if speed * 1.0 > 2.5:  # stay clear of the angular cut and the apex
            continue
        geo = cone_geodesic(p0, v0, 1.0, 1e-3, P)
        d = cone_distance(p0, geo.endpoint, P)
        assert abs(d - speed * 1.0) < 1e-6
        assert geo.speed_drift < 1e-8


def test_geodesic_hits_apex():
    # inward radial shot from small mass: a stage lands below the floor
    with pytest.raises(ApexError):
        cone_geodesic(ConePoint(0.0, 0.0025), ConeTangent(0.0, -0.1), 0.2,
                      0.02, P)


def reference_geodesic(p0, v0, t_final, dt, params=P):
    """The geodesic equations integrated by fixed-step RK4, written out.

    x'' + (m'/m) x' = 0,   m'' - m'^2/(2m) - (a^2/2b^2) x'^2 m = 0.
    Returns the (n_steps + 1, 4) history of (x, m, dx, dm).
    """
    n_steps = step_count(t_final, dt)
    state = np.array([p0.x, p0.m, v0.dx, v0.dm], dtype=float)
    out = np.empty((n_steps + 1, 4))
    out[0] = state
    c = params.a ** 2 / (2.0 * params.b ** 2)

    def rhs(_, y):
        x, m, dx, dm = y[0]
        return (np.array([dx, dm, -dm * dx / m,
                          dm * dm / (2.0 * m) + c * dx * dx * m]),)

    for i in range(n_steps):
        state, = tuple_rk4_step(rhs, (state,), dt)
        out[i + 1] = state
    return out


def test_geodesic_matches_the_rk4_oracle():
    # the developed-plane line solves the geodesic equations, also where
    # a/2b != 1 and the planar chart is not global
    shots = [(0.0, 1.0, 0.0, 0.8), (1.0, 1.0, 1.0, 0.0), (2.0, 0.5, 0.7, -0.3)]
    rng = np.random.default_rng(15)
    while len(shots) < 13:
        shot = (rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 2.0),
                rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        p0, v0 = ConePoint(*shot[:2]), ConeTangent(*shot[2:])
        if 1e-3 <= np.sqrt(cone_metric(p0, v0, v0, P)) <= 1.0:  # off the apex
            shots.append(shot)
    for params in (P, ConeParams(2.0, 0.5), ConeParams(1.0, 1.0),
                   ConeParams(1.5, 0.3)):
        for x0, m0, dx0, dm0 in shots:
            p0, v0 = ConePoint(x0, m0), ConeTangent(dx0, dm0)
            geo = cone_geodesic(p0, v0, 0.5, 1e-3, params)
            ref = reference_geodesic(p0, v0, 0.5, 1e-3, params)
            assert np.array_equal(geo.times, np.arange(501) * 1e-3)
            assert np.max(np.abs(geo.x - ref[:, 0])
                          + np.abs(geo.m - ref[:, 1])) < 1e-10
            assert np.max(np.abs(geo.dx - ref[:, 2])) < 1e-10
            assert np.max(np.abs(geo.dm - ref[:, 3])) < 1e-10
            assert geo.speed_drift < 1e-12


@pytest.mark.parametrize("x0, m0, dx0, dm0, t_final, dt", [
    (0.0, 0.0025, 0.0, -0.1, 0.2, 0.02),
    (1.0, 1.0, 0.0, -4.01, 1.0, 0.01),
    (0.3, 5e-12, 0.0, -6e-10, 0.1, 0.01),
])
def test_geodesic_hits_the_apex_at_the_analytic_time(x0, m0, dx0, dm0,
                                                     t_final, dt):
    # radial inward shot: sqrt(m) falls affinely, sqrt(m0) + t dm0/(2 sqrt(m0)),
    # and meets sqrt(APEX_FLOOR) at t = 2 (m0 - sqrt(m0 APEX_FLOOR)) / |dm0|;
    # for (1, 1), (0, -4.01) that is (1 - 1e-6) / 2.005
    hit = 2 * (m0 - np.sqrt(m0 * APEX_FLOOR)) / abs(dm0)
    p0, v0 = ConePoint(x0, m0), ConeTangent(dx0, dm0)
    with pytest.raises(ApexError, match="reaches the apex floor at t=") as got:
        cone_geodesic(p0, v0, t_final, dt)
    assert float(str(got.value).rsplit("t=", 1)[1]) == pytest.approx(
        hit, rel=1e-11)
    # a horizon that stops short of the floor returns the radial ray
    geo = cone_geodesic(p0, v0, 0.99 * hit, 0.99 * hit / 50)
    assert np.all(geo.m > APEX_FLOOR)
    assert np.max(np.abs(np.sqrt(geo.m) - (np.sqrt(m0) + geo.times * dm0
                                           / (2 * np.sqrt(m0))))) < 1e-15


@pytest.mark.parametrize("x0, m0, dx0, dm0, dt", [
    (0.3, 0.32648481991983835, 0.0006725266339168693, -0.7678231382637578,
     0.01),
    (0.8985085947453845, 0.023600480030313797, -0.0013221755130013706,
     -0.7859774546732977, 0.02),
    (0.9413188366317926, 0.1306831991219532, -0.00847121958163566,
     -0.5808079212433666, 0.01),
    (0.0590014324327984, 0.2998254430913398, -0.001985104644768714,
     -0.9734044660736564, 0.1),
    (1.9632536445167228, 0.39568195874063605, -0.0052479348936988295,
     -0.8791599444532794, 0.05),
    (3.447, 0.232, 0.00545, -0.768, 0.1),
    (3.4473, 0.232, 0.0054535, -0.7678, 0.1),
    (3.4468, 0.2323, 0.005448, -0.768, 0.1),
    (3.447, 0.232, 0.00545, -0.768, 0.05),
], ids=[f"rk4-overflow-{i}" for i in range(6)]
    + [f"rk4-drift-{i}" for i in range(3)])
def test_geodesic_close_pass_by_the_apex_is_exact(x0, m0, dx0, dm0, dt):
    # inward shots that pass the apex closer than a fixed RK4 step can
    # resolve (it overflowed or ended with its speed 1.9% to inf off) but
    # outside the floor: the closed form returns the geodesic at any dt
    p0, v0 = ConePoint(x0, m0), ConeTangent(dx0, dm0)
    geo = cone_geodesic(p0, v0, 1.0, dt)
    assert cone_distance(p0, geo.endpoint) == pytest.approx(geo.speed,
                                                            rel=1e-12)
    assert geo.speed_drift < 1e-12


def test_inward_shots_raise_only_where_the_segment_meets_the_floor():
    # 3,000 random inward shots: a fixed RK4 step refused 914 of them
    # (floor, overflow, drift); only the 2 whose exact path comes within
    # the floor raise, the rest end at distance speed * t
    rng = np.random.default_rng(0)
    raised, near = [], []
    for _ in range(3000):
        x0, m0 = rng.uniform(0, 2 * np.pi), rng.uniform(0.01, 1)
        dx0, dm0 = rng.uniform(-0.01, 0.01), rng.uniform(-1, -0.1)
        dt = (0.01, 0.02, 0.05, 0.1)[rng.integers(4)]
        # in the plane of planar_chart: start (r0, 0), velocity (vr, vt)
        r0 = np.sqrt(m0)
        vr, vt = 0.5 * dm0 / r0, r0 * dx0
        t_near = np.clip(-r0 * vr / (vr ** 2 + vt ** 2), 0.0, 1.0)
        near.append(((r0 + t_near * vr) ** 2 + (t_near * vt) ** 2
                     <= APEX_FLOOR))
        p0 = ConePoint(x0, m0)
        try:
            geo = cone_geodesic(p0, ConeTangent(dx0, dm0), 1.0, dt)
        except ApexError:
            raised.append(True)
            continue
        raised.append(False)
        assert cone_distance(p0, geo.endpoint) == pytest.approx(geo.speed,
                                                                rel=1e-12)
        assert geo.speed_drift < 1e-12
    assert raised == near
    assert sum(raised) == 2


def test_geodesic_speed_conservation_generic():
    geo = cone_geodesic(ConePoint(0.2, 1.5), ConeTangent(0.7, -0.3), 1.0, 1e-3, P)
    assert geo.speed_drift < 1e-8


def test_metric_positive_and_apex_guard():
    p = ConePoint(0.0, 2.0)
    v = ConeTangent(1.0, 0.5)
    assert cone_metric(p, v, v, P) > 0
    with pytest.raises(ApexError):
        cone_metric(ConePoint(0.0, 0.0), v, v, P)


def test_type_validation():
    with pytest.raises(ValueError):
        ConeParams(a=0.0)
    with pytest.raises(ValueError):
        ConeParams(b=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        for kw in ({"a": bad}, {"b": bad}):
            with pytest.raises(ValueError, match="finite and positive"):
                ConeParams(**kw)
    with pytest.raises(ValueError):
        ConePoint(0.0, -0.1)
    for x, m in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            ConePoint(x, m)
    with pytest.raises(ValueError):
        cone_geodesic(ConePoint(0.0, 1.0), ConeTangent(1.0, 0.0), 1.0, -1e-3, P)
    with pytest.raises(ApexError):
        cone_geodesic(ConePoint(0.0, 0.0), ConeTangent(1.0, 0.0), 1.0, 1e-3, P)


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("value", [1e200, 1e155, 1e-155, 1e-200, 1e-300])
def test_coefficients_whose_square_is_not_a_normal_float_are_rejected(
        name, value):
    # 1e200 squared overflows (an OverflowError from a ** 2 downstream);
    # 1e-200 squared underflows to 0, and a distance of 0 would come back
    with pytest.raises(ValueError, match=f"cone parameter {name}=.*square"):
        ConeParams(**{name: value})


def test_coefficients_with_normal_squares_are_kept():
    for value in (1.3e154, 1.5e-154, 1e-10, 1e10):
        for kw in ({"a": value}, {"b": value}):
            params = ConeParams(**kw)
            assert getattr(params, next(iter(kw))) == value
