import csv
import dataclasses
import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

from crsphere import geodesics as G
from crsphere import sphere
from crsphere.calculus import ScalarField
from crsphere.polynomials import Polynomial
from crsphere.sphere import (
    SpherePoint,
    TangentVector,
    horizontal_frame,
    random_horizontal,
    random_point,
    times_i,
)
from crsphere.suites import TOL_CLOSED_FORM, Config, run_suite

E1 = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), 1)


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def test_great_circle_values():
    v = TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True)
    out = G.great_circle(E1, v, np.pi / 2)
    assert_allclose(out.coords, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(G.great_circle(E1, v, 0.0).coords, E1.coords)


def test_great_circle_requires_horizontal_unit():
    with pytest.raises(ValueError):
        G.great_circle(E1, np.array([0.0, 2.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        G.great_circle(E1, np.array([0.0, 0.0, 1.0, 0.0]), 1.0)  # Reeb direction


@pytest.mark.parametrize("n", [1, 2, 3])
def test_great_circle_points_match_great_circle(n, rng):
    p = random_point(rng, n)
    v = random_horizontal(rng, p)
    s = np.linspace(0.0, 2 * np.pi, 41)
    pts = G.great_circle_points(p, v, s)
    assert pts.shape == (s.size, 2 * n + 2)
    for si, row in zip(s, pts):
        assert_allclose(row, G.great_circle(p, v, si).coords, rtol=0, atol=1e-15)
    assert_allclose(G.great_circle_points(p, v.vec, s), pts, rtol=0, atol=0)


@pytest.mark.parametrize("vec", [
    [0.0, 2.0, 0.0, 0.0],        # not unit
    [0.0, 0.0, 1.0, 0.0],        # the Reeb direction
    [0.0, np.nan, 0.0, 0.0],
    [0.0, np.inf, 0.0, 0.0],
])
def test_great_circle_points_validate_the_direction(vec):
    with pytest.raises(ValueError):
        G.great_circle_points(E1, np.array(vec), np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_great_circle_rejects_a_non_finite_direction(bad):
    # a NaN norm fails the unit guard itself, before SpherePoint sees it
    for k in range(4):
        vec = np.array([0.0, 1.0, 0.0, 0.0])
        vec[k] = bad
        with pytest.raises(ValueError, match="expects a unit direction"):
            G.great_circle(E1, vec, 1.0)


def test_great_circle_stays_lengthy(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    for s in np.linspace(0.0, 2 * np.pi, 25):
        gamma = p.coords * np.cos(s) + v.vec * np.sin(s)
        dgamma = -p.coords * np.sin(s) + v.vec * np.cos(s)
        assert abs(float(times_i(gamma) @ dgamma)) < 1e-14


def test_closed_form_exact_invariants(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    s = np.linspace(0.0, 2 * np.pi, 200)
    pts, vels = G.closed_form_geodesic(p, v.vec, 0.9, s)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-14
    assert np.max(np.abs(np.linalg.norm(vels, axis=1) - 1.0)) < 1e-13
    theta = np.einsum("ij,ij->i", times_i(pts), vels)
    assert np.max(np.abs(theta)) < 1e-13
    pts0, _ = G.closed_form_geodesic(p, v.vec, 0.0, s)
    expected = np.outer(np.cos(s), p.coords) + np.outer(np.sin(s), v.vec)
    assert_allclose(pts0, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# The connection integrator.
# ---------------------------------------------------------------------------


def test_integrator_argument_validation(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    state = G.GeodesicState(p, v, 0.0)
    with pytest.raises(ValueError):
        G.integrate_connection_geodesic(state, 1.0, 0.0)
    with pytest.raises(ValueError):
        G.integrate_connection_geodesic(state, 1.0, 0.5)
    with pytest.raises(ValueError):
        G.GeodesicState(p, TangentVector(p, p.reeb_coords()), 0.0)
    with pytest.raises(ValueError, match="must be a TangentVector"):
        G.GeodesicState(p, v.vec, 0.0)


def test_integrator_matches_great_circle(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, 0.0), 2 * np.pi, 1e-3)
    target = G.great_circle(p, v, 2 * np.pi)
    assert np.linalg.norm(trace.endpoint() - target.coords) < 1e-6
    assert trace.s[-1] == pytest.approx(2 * np.pi, abs=1e-12)


def test_integrator_conservation_nonzero_b(rng):
    p = random_point(rng, 2)
    v = random_horizontal(rng, p)
    trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, 1.1), 2 * np.pi, 1e-3)
    assert trace.max_lengthiness_violation < 1e-7
    assert trace.max_speed_drift < 1e-7
    assert np.all(trace.b == 1.1)  # the multiplier is frozen on the spheres


def test_integrator_matches_closed_form(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, -0.6), 3.0, 1e-3)
    pts, _ = G.closed_form_geodesic(p, v.vec, -0.6, trace.s)
    assert np.max(np.linalg.norm(trace.points - pts, axis=1)) < 1e-6


def test_exp_map(rng):
    p = random_point(rng, 1)
    assert G.exp_map(p, np.zeros(4)) is p
    v = random_horizontal(rng, p)
    w = 0.8 * v.vec
    out = G.exp_map(p, w)
    assert_allclose(out.coords, G.great_circle(p, v, 0.8).coords, atol=1e-14)


# ---------------------------------------------------------------------------
# Cotangent route.
# ---------------------------------------------------------------------------


def test_canonical_lift_pairings(rng):
    p = random_point(rng, 1)
    frame = horizontal_frame(p)
    v = frame.vectors[0]
    lift = G.cotangent_lift(p, v, 1.0)
    chart = G._charts(1)[lift.chart]
    jac = chart.jacobian(lift.x)
    # xi(T) = 1 and xi(X_j) = g(v, X_j); chart covectors pair through the
    # Jacobian columns
    theta_chart = jac.T @ times_i(p.coords)

    def pair(ambient_vec):
        coeff = np.linalg.lstsq(jac, ambient_vec, rcond=None)[0]
        return float(lift.xi @ coeff)

    assert abs(pair(times_i(p.coords)) - 1.0) < 1e-9
    assert abs(pair(frame.vectors[0].vec) - 1.0) < 1e-9
    assert abs(pair(frame.vectors[1].vec)) < 1e-9  # orthogonal frame vector
    # cometric inversion returns the velocity
    vel = jac @ (chart.cometric(lift.x) @ lift.xi)
    assert_allclose(vel, v.vec, atol=1e-9)
    del theta_chart


def test_canonical_lift_zero_velocity(rng):
    p = random_point(rng, 1)
    lift = G.cotangent_lift(p, np.zeros(4), 1.0)
    chart = G._charts(1)[lift.chart]
    jac = chart.jacobian(lift.x)
    vel = jac @ (chart.cometric(lift.x) @ lift.xi)
    assert np.max(np.abs(vel)) < 1e-12  # vanishes on the horizontal space
    assert G.hamiltonian(lift) < 1e-12
    # still pairs to one against the Reeb direction
    coeff = np.linalg.lstsq(jac, times_i(p.coords), rcond=None)[0]
    assert abs(float(lift.xi @ coeff) - 1.0) < 1e-9


def test_hamiltonian_value(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    lift = G.cotangent_lift(p, v, 0.7)
    assert abs(G.hamiltonian(lift) - 0.5) < 1e-12


# |u| at which a chart point reaches the handoff height: the height is
# (D - 2)/D with D = |u|^2 + 1.
HANDOFF_RADIUS = math.sqrt((1 + G.Chart.HANDOFF_HEIGHT) / (1 - G.Chart.HANDOFF_HEIGHT))


@st.composite
def _chart_states(draw):
    n = draw(st.integers(1, 3))
    chart = G.Chart(n, draw(st.sampled_from((1, -1))))
    dim = 2 * n + 1
    floats = st.floats(-1.0, 1.0)
    direction = np.array(draw(st.lists(floats, min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(direction))
    direction = direction / norm if norm > 1e-3 else np.eye(dim)[0]
    u = draw(st.floats(0.0, 1.4 * HANDOFF_RADIUS)) * direction
    xi = 3.0 * np.array(draw(st.lists(floats, min_size=dim, max_size=dim)))
    return chart, u, xi


@settings(max_examples=120, deadline=None)
@given(_chart_states())
def test_hj_rhs_matches_matrix_cometric(state):
    # the closed-form field against the matrix oracle: dH/dxi = g xi, and
    # -dH/du by central differences of (1/2) xi^T g(u) xi
    chart, u, xi = state
    du, dxi, d = G._hj_rhs(chart, u, xi)
    assert d == sum(map(mul, u, u)) + 1.0  # the D of the chart maps, bit for bit
    g = chart.cometric(u)
    assert_allclose(du, g @ xi, rtol=1e-12, atol=1e-12 * (1.0 + float(np.max(np.abs(g @ xi)))))

    def ham(x):
        return 0.5 * float(xi @ chart.cometric(x) @ xi)

    h = 1e-5
    fd = np.array([-(ham(u + h * e) - ham(u - h * e)) / (2 * h) for e in np.eye(u.size)])
    scale = 1.0 + float(np.max(np.abs(fd)))
    assert np.max(np.abs(dxi - fd)) < 1e-7 * scale


def test_hj_flow_builds_no_matrix(monkeypatch, rng):
    def refuse(self, u):
        raise AssertionError("the HJ flow built a chart matrix")

    monkeypatch.setattr(G.Chart, "cometric", refuse)
    monkeypatch.setattr(G.Chart, "jacobian", refuse)
    v = TangentVector(E1, np.array([0.0, 0.0, 0.0, 1.0]), True)
    through = G.integrate_hj_geodesic(G.cotangent_lift(E1, v, 0.0), 3.0, 1e-2)
    assert through.events  # the run hands off charts
    p = random_point(rng, 2)
    G.integrate_hj_geodesic(G.cotangent_lift(p, random_horizontal(rng, p), 1.0), 0.5, 1e-2)


def test_step_loops_call_no_times_i(monkeypatch):
    # the RK4 step bodies are scalar: the number of sphere.times_i calls
    # an integration makes must not grow with its number of steps
    calls = []

    def counting(v):
        calls.append(1)
        return times_i(v)

    monkeypatch.setattr(G, "times_i", counting)
    monkeypatch.setattr(sphere, "times_i", counting)
    p, v = _pole_crossing_start(2)
    lift = G.cotangent_lift(p, v, 0.7)
    state = G.GeodesicState(p, v, 0.7)
    counts = {}
    for length in (0.3, 3.0):
        for name, run in (
            ("connection", lambda: G.integrate_connection_geodesic(state, length, 1e-2)),
            ("hj", lambda: G.integrate_hj_geodesic(lift, length, 1e-2)),
        ):
            calls.clear()
            trace = run()
            counts.setdefault(name, []).append((len(calls), len(trace.events)))
    assert counts["hj"][1][1] > 0  # the long HJ run hands off charts
    for name, ((short, _), (long, _)) in counts.items():
        assert long == short, name


def test_hand_off_matches_solve_form(rng):
    # J^T J = (4/D^2) I, so the closed form replaces a linear solve
    for n in (1, 2, 3):
        for cid in (0, 1):
            old, new = G._charts(n)[cid], G._charts(n)[1 - cid]
            for _ in range(10):
                d = rng.standard_normal(2 * n + 1)
                u = d / np.linalg.norm(d) * rng.uniform(HANDOFF_RADIUS, 1.2 * HANDOFF_RADIUS)
                xi = rng.standard_normal(2 * n + 1)
                u_new, xi_new = G._hand_off(old, new, u, xi)
                jac = old.jacobian(u)
                m_amb = jac @ np.linalg.solve(jac.T @ jac, xi)
                u_ref = new.to_coords(old.from_coords(u))
                assert_allclose(u_new, u_ref, rtol=0, atol=1e-15)
                assert np.max(np.abs(xi_new - new.jacobian(u_ref).T @ m_amb)) < 1e-13


def test_hj_matches_connection_route(rng):
    for n in (1, 2):
        for b in (0.0, 1.0, -0.8):
            p = random_point(rng, n)
            v = random_horizontal(rng, p)
            conn = G.integrate_connection_geodesic(G.GeodesicState(p, v, b), 1.0, 1e-3)
            hj = G.integrate_hj_geodesic(G.cotangent_lift(p, v, b), 1.0, 1e-3)
            gap = np.max(np.linalg.norm(conn.points - hj.points, axis=1))
            assert gap < 1e-6
            sp = hj.speed
            assert np.max(np.abs(0.5 * sp**2 - 0.5 * sp[0] ** 2)) < 1e-7
            assert hj.max_lengthiness_violation < 1e-7


def test_hj_chart_handoff():
    v = TangentVector(E1, np.array([0.0, 0.0, 0.0, 1.0]), True)
    hj = G.integrate_hj_geodesic(G.cotangent_lift(E1, v, 0.0), 3.0, 1e-3)
    assert hj.events, "trajectory through the pole region must hand off charts"
    assert hj.events[0]["from_chart"] != hj.events[0]["to_chart"]
    conn = G.integrate_connection_geodesic(G.GeodesicState(E1, v, 0.0), 3.0, 1e-3)
    assert np.max(np.linalg.norm(conn.points - hj.points, axis=1)) < 1e-5


def test_hj_reparametrization_invariance(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    lift = G.cotangent_lift(p, v, 1.0)
    doubled = G.CotangentState(lift.x, 2.0 * lift.xi, lift.chart, 1)
    full = G.integrate_hj_geodesic(lift, 1.0, 1e-3)
    half = G.integrate_hj_geodesic(doubled, 0.5, 1e-3)
    assert np.linalg.norm(full.endpoint() - half.endpoint()) < 1e-6


# ---------------------------------------------------------------------------
# The scalar RK4 kernels against numpy references.
# ---------------------------------------------------------------------------


def _connection_rhs_reference(q, v, b):
    t = times_i(q)
    vh = v - (q @ v) * q - (t @ v) * t
    theta_v = float(t @ v)
    acc = -(v @ v) * q + (2.0 * theta_v - 2.0 * b) * times_i(vh)
    return v, acc


def connection_rk4_reference(init, s_max, step):
    """The connection route as RK4 on real numpy vectors in R^(2n+2)."""
    steps = G._step_schedule(s_max, step)
    q = init.x.coords.copy()
    v = init.v.vec.copy()
    b = float(init.b)
    svals, points, vels = [0.0], [q], [v]
    s = 0.0
    for h in steps:
        k1q, k1v = _connection_rhs_reference(q, v, b)
        k2q, k2v = _connection_rhs_reference(q + 0.5 * h * k1q, v + 0.5 * h * k1v, b)
        k3q, k3v = _connection_rhs_reference(q + 0.5 * h * k2q, v + 0.5 * h * k2v, b)
        k4q, k4v = _connection_rhs_reference(q + h * k3q, v + h * k3v, b)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        q = q / np.linalg.norm(q)
        s += h
        svals.append(s)
        points.append(q)
        vels.append(v)
    return G.GeodesicTrace(
        np.array(svals), np.array(points), np.array(vels), np.full(len(svals), b)
    )


def _from_coords_reference(chart, u):
    d = float(u @ u) + 1.0
    q = np.empty(chart.m)
    q[:-1] = 2.0 * u / d
    q[-1] = chart.sign * (d - 2.0) / d
    return q


def _push_reference(chart, u, x):
    d = float(u @ u) + 1.0
    ux = float(u @ x)
    out = np.empty(chart.m)
    out[:-1] = (2.0 / d) * x - (4.0 * ux / (d * d)) * u
    out[-1] = chart.sign * 4.0 * ux / (d * d)
    return out


def _pull_reference(chart, u, w):
    d = float(u @ u) + 1.0
    wp = w[:-1]
    return (2.0 / d) * wp + (4.0 * (chart.sign * w[-1] - float(u @ wp)) / (d * d)) * u


def _cometric_apply_reference(chart, u, xi):
    d = float(u @ u) + 1.0
    w = times_i(_from_coords_reference(chart, u))
    m = _pull_reference(chart, u, w)
    c = float(m @ xi)
    return (0.25 * d * d) * xi - (d**4 / 16.0 * c) * m, d, w, c


def _hj_rhs_reference(chart, u, xi):
    du, d, w, c = _cometric_apply_reference(chart, u, xi)
    wp = w[:-1]
    a = float(u @ wp) - chart.sign * w[-1]
    uxi = float(u @ xi)
    hess_xi = (-4.0 / (d * d)) * (uxi * wp + float(wp @ xi) * u + a * xi) + (
        16.0 * a * uxi / d**3
    ) * u
    grad_c = hess_xi - _pull_reference(chart, u, times_i(_push_reference(chart, u, xi)))
    dxi = -0.5 * ((d * float(xi @ xi) - 0.5 * d**3 * c * c) * u - (d**4 / 8.0 * c) * grad_c)
    return du, dxi


def hj_rk4_reference(init, t_max, step):
    """The HJ route as RK4 on numpy vectors, recording J g xi after every step."""
    steps = G._step_schedule(t_max, step)
    charts = G._charts(init.n)
    cid = init.chart
    u, xi = init.x.copy(), init.xi.copy()
    svals, points, vels, events = [], [], [], []

    def record(t):
        chart = charts[cid]
        svals.append(t)
        points.append(_from_coords_reference(chart, u))
        vels.append(_push_reference(chart, u, _cometric_apply_reference(chart, u, xi)[0]))

    record(0.0)
    t = 0.0
    for h in steps:
        chart = charts[cid]
        k1u, k1x = _hj_rhs_reference(chart, u, xi)
        k2u, k2x = _hj_rhs_reference(chart, u + 0.5 * h * k1u, xi + 0.5 * h * k1x)
        k3u, k3x = _hj_rhs_reference(chart, u + 0.5 * h * k2u, xi + 0.5 * h * k2x)
        k4u, k4x = _hj_rhs_reference(chart, u + h * k3u, xi + h * k3x)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        xi = xi + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        t += h
        record(t)
        if chart.height(points[-1]) > G.Chart.HANDOFF_HEIGHT:
            new = charts[1 - cid]
            d = float(u @ u) + 1.0
            m_amb = _push_reference(chart, u, (0.25 * d * d) * xi)
            u = np.array(new.to_coords(_from_coords_reference(chart, u)))
            xi = _pull_reference(new, u, m_amb)
            events.append({"t": t, "from_chart": cid, "to_chart": 1 - cid})
            cid = 1 - cid
    return G.GeodesicTrace(
        np.array(svals), np.array(points), np.array(vels), np.full(len(svals), np.nan), events
    )


def _connection_rhs_scalar_reference(q, v, b):
    """(gamma', gamma'') at (q, v), lists of complex scalars in C^(n+1).

    c = <q, v> = sum conj(q_j) v_j gives pi_H v = v - c q and
    theta(v) = Im c.
    """
    c = sum(map(mul, map(complex.conjugate, q), v))
    vv = sum([w.real * w.real + w.imag * w.imag for w in v])
    k = 2j * (c.imag - b)
    return v, [k * (w - c * z) - vv * z for z, w in zip(q, v)]


def connection_scalar_rk4_reference(init, s_max, step):
    """The connection route as RK4 on lists of complex scalars in C^(n+1).

    The step loop the plane-coefficient route replaced.
    """
    steps = G._step_schedule(s_max, step)
    q = G._complex(init.x.coords).tolist()
    v = G._complex(init.v.vec).tolist()
    b = float(init.b)
    svals = np.empty(len(steps) + 1)
    zq = np.empty((len(steps) + 1, len(q)), dtype=complex)
    zv = np.empty_like(zq)
    svals[0] = 0.0
    zq[0] = q
    zv[0] = v
    s = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k1q, k1v = _connection_rhs_scalar_reference(q, v, b)
        k2q, k2v = _connection_rhs_scalar_reference(
            [z + half * d for z, d in zip(q, k1q)], [w + half * d for w, d in zip(v, k1v)], b
        )
        k3q, k3v = _connection_rhs_scalar_reference(
            [z + half * d for z, d in zip(q, k2q)], [w + half * d for w, d in zip(v, k2v)], b
        )
        k4q, k4v = _connection_rhs_scalar_reference(
            [z + h * d for z, d in zip(q, k3q)], [w + h * d for w, d in zip(v, k3v)], b
        )
        q = [
            z + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for z, d1, d2, d3, d4 in zip(q, k1q, k2q, k3q, k4q)
        ]
        v = [
            w + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
            for w, d1, d2, d3, d4 in zip(v, k1v, k2v, k3v, k4v)
        ]
        norm = math.sqrt(sum([z.real * z.real + z.imag * z.imag for z in q]))
        q = [z / norm for z in q]
        s += h
        svals[i] = s
        zq[i] = q
        zv[i] = v
    return G.GeodesicTrace(svals, G._real(zq), G._real(zv), np.full(len(steps) + 1, b))


def _mul_i_reference(v):
    """i v for a list v of floats laid out as (x, y): the list (-y, x)."""
    half = len(v) // 2
    return [-x for x in v[half:]] + v[:half]


def _cometric_apply_scalar_reference(chart, u, xi):
    """g(u) xi = (D^2/4) xi - (D^4/16) c m without building g.

    m = J^T(iq) and c = m.xi; returns g xi with D, iq and c, on lists.
    """
    d = sum(map(mul, u, u)) + 1.0
    w = _mul_i_reference(chart.from_coords(u))
    m = chart.pull(u, w)
    c = sum(map(mul, m, xi))
    r, k = 0.25 * d * d, d**4 / 16.0 * c
    return [r * x - k * y for x, y in zip(xi, m)], d, w, c


def _hj_rhs_scalar_reference(chart, u, xi):
    """(dH/dxi, -dH/du) for H = (1/2)[(D^2/4)|xi|^2 - (D^4/16) c^2] through the chart maps.

    The closed form the polynomial `_hj_rhs` replaced.  With dD/du = 2u,
    dH/du = (1/2)[D|xi|^2 u - (1/2) D^3 c^2 u - (D^4/8) c grad c].  Since
    c = (J xi).(iq), its gradient is Hess_u(q.w)|_(w = iq) xi - J^T(i J xi),
    where q.w = s w_last + 2a/D with a = u.w' - s w_last for a fixed w.
    """
    du, d, w, c = _cometric_apply_scalar_reference(chart, u, xi)
    a = sum(map(mul, u, w)) - chart.sign * w[-1]
    uxi = sum(map(mul, u, xi))
    wxi = sum(map(mul, w, xi))
    r, k = -4.0 / (d * d), 16.0 * a * uxi / d**3
    pulled = chart.pull(u, _mul_i_reference(chart.push(u, xi)))
    e = d * sum(map(mul, xi, xi)) - 0.5 * d**3 * c * c
    f = d**4 / 8.0 * c
    # grad c = Hess xi - pulled, Hess xi = r (uxi w' + (w'.xi) u + a xi) + k u
    return du, [
        -0.5 * (e * y - f * ((r * (uxi * x + wxi * y + a * z) + k * y) - p))
        for x, y, z, p in zip(w, u, xi, pulled)
    ]


@settings(max_examples=120, deadline=None)
@given(_chart_states())
def test_hj_rhs_matches_the_chart_map_closed_form(state):
    # the polynomial field against the closed form through push and pull
    chart, u, xi = state
    got = G._hj_rhs(chart, u.tolist(), xi.tolist())[:2]
    want = _hj_rhs_scalar_reference(chart, u.tolist(), xi.tolist())
    for g, w in zip(got, want):
        w = np.array(w)
        assert np.max(np.abs(np.array(g) - w)) <= 1e-13 * max(1.0, float(np.max(np.abs(w))))


def _reeb_polynomial_reference(chart, u):
    """M(u) = R u + s u_n u - (s/2)(|u|^2 - 1) e_n with R as an explicit matrix."""
    n, s = chart.n, chart.sign
    rot = np.zeros((2 * n + 1, 2 * n + 1))
    for j in range(n):
        rot[j, j + n + 1] = -1.0
        rot[j + n + 1, j] = 1.0
    e_n = np.eye(2 * n + 1)[n]
    return rot @ u + s * u[n] * u - 0.5 * s * (u @ u - 1.0) * e_n


@settings(max_examples=120, deadline=None)
@given(_chart_states())
def test_polynomial_hamiltonian_matches_the_matrix_cometric(state):
    # (D^2/4) J^T(iq) is the polynomial M(u), so
    # H = (D^2/8)|xi|^2 - (1/2)(M.xi)^2 is the matrix Hamiltonian
    chart, u, xi = state
    d = float(u @ u) + 1.0
    m = _reeb_polynomial_reference(chart, u)
    jac_m = 0.25 * d * d * (chart.jacobian(u).T @ times_i(chart.from_coords(u)))
    assert_allclose(m, jac_m, rtol=0, atol=1e-13 * max(1.0, float(np.max(np.abs(jac_m)))))
    lift = G.CotangentState(u, xi, 0 if chart.sign > 0 else 1, chart.n)
    ham = 0.125 * d * d * float(xi @ xi) - 0.5 * float(m @ xi) ** 2
    assert abs(ham - G.hamiltonian(lift)) <= 1e-12 * max(1.0, 0.125 * d * d * float(xi @ xi))


def _pole_crossing_start(n):
    """E1 in S^(2n+1) with the horizontal unit velocity toward the last axis."""
    e1, last = np.zeros(2 * n + 2), np.zeros(2 * n + 2)
    e1[0] = last[-1] = 1.0
    p = SpherePoint(e1, n)
    return p, TangentVector(p, last, True)


@st.composite
def _geodesic_starts(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        p, v = _pole_crossing_start(n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = random_point(rng, n)
        v = random_horizontal(rng, p)
    b = draw(st.floats(-3.0, 3.0))
    step = draw(st.sampled_from((2e-3, 5e-3, 1e-2)))
    # a whole number of steps plus a remainder, so the last step is short
    length = step * (draw(st.integers(50, 300)) + draw(st.floats(0.05, 0.95)))
    return p, v, b, length, step


def _assert_same_trace(got, want):
    assert np.array_equal(got.s, want.s)
    assert_allclose(got.points, want.points, rtol=0, atol=1e-13)
    assert_allclose(got.velocities, want.velocities, rtol=0, atol=1e-13)
    assert got.events == want.events


@settings(max_examples=40, deadline=None)
@given(_geodesic_starts())
def test_scalar_kernels_match_numpy_references(start):
    p, v, b, length, step = start
    state = G.GeodesicState(p, v, b)
    _assert_same_trace(
        G.integrate_connection_geodesic(state, length, step),
        connection_rk4_reference(state, length, step),
    )
    lift = G.cotangent_lift(p, v, b)
    _assert_same_trace(
        G.integrate_hj_geodesic(lift, length, step), hj_rk4_reference(lift, length, step)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("speed", [0.0, 0.3, 3.0])
def test_plane_route_on_every_gram_matrix(n, speed, rng):
    # the plane route reads every product from the Gram matrix of (q0, v0)
    # as it is: a zero and non-unit velocities need no special case
    for b in (0.0, 1.3, -2.2):
        p = random_point(rng, n)
        v = TangentVector(p, speed * random_horizontal(rng, p).vec, True)
        state = G.GeodesicState(p, v, b)
        got = G.integrate_connection_geodesic(state, 1.2345, 5e-3)
        _assert_same_trace(got, connection_rk4_reference(state, 1.2345, 5e-3))
        _assert_same_trace(got, connection_scalar_rk4_reference(state, 1.2345, 5e-3))
        if speed == 0.0:
            assert np.all(got.velocities == 0.0)
            assert np.max(np.abs(got.points - p.coords)) <= 1e-15


@pytest.mark.parametrize("s_max, step", [
    (1.0, np.nan),
    (np.nan, 1e-2),
    (np.inf, 1e-2),
    (-np.inf, 1e-2),
    (1.0, np.inf),
])
@pytest.mark.parametrize("route", ["connection", "hj"])
def test_integrators_reject_non_finite_lengths_and_steps(s_max, step, route):
    p, v = _pole_crossing_start(1)
    if route == "connection":
        run, init = G.integrate_connection_geodesic, G.GeodesicState(p, v, 0.5)
    else:
        run, init = G.integrate_hj_geodesic, G.cotangent_lift(p, v, 0.5)
    with pytest.raises(ValueError):
        run(init, s_max, step)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_geodesic_data_must_be_finite(bad):
    p, v = _pole_crossing_start(1)
    with pytest.raises(ValueError, match="multiplier b must be finite"):
        G.GeodesicState(p, v, bad)
    with pytest.raises(ValueError, match="Reeb component must be finite"):
        G.cotangent_lift(p, v, bad)
    lift = G.cotangent_lift(p, v, 0.5)
    for k in range(lift.x.size):
        x, xi = lift.x.copy(), lift.xi.copy()
        x[k] = bad
        with pytest.raises(ValueError, match="chart position has a non-finite entry"):
            G.CotangentState(x, lift.xi, lift.chart, 1)
        xi[k] = bad
        with pytest.raises(ValueError, match="chart covector has a non-finite entry"):
            G.CotangentState(lift.x, xi, lift.chart, 1)


def test_cotangent_state_chart_is_zero_or_one():
    # -1 and True used to pick the south chart by tuple indexing, 2 an IndexError later
    p, v = _pole_crossing_start(1)
    lift = G.cotangent_lift(p, v, 0.5)
    for bad in (-1, 2, True, False, 1.0, None):
        with pytest.raises(ValueError, match="chart must be 0 or 1"):
            G.CotangentState(lift.x, lift.xi, bad, 1)
    for chart in (0, 1, np.int64(1)):
        assert G.CotangentState(lift.x, lift.xi, chart, 1).chart == chart


def test_pole_crossing_start_hands_off():
    # the E1 start of the property test does exercise a chart handoff
    for n in (1, 2, 3):
        p, v = _pole_crossing_start(n)
        lift = G.cotangent_lift(p, v, 0.5)
        got = G.integrate_hj_geodesic(lift, 2.005, 1e-2)
        assert got.events
        _assert_same_trace(got, hj_rk4_reference(lift, 2.005, 1e-2))


# ---------------------------------------------------------------------------
# The straight-line step loops against their list-form loops, bit for bit.
# ---------------------------------------------------------------------------


def _plane_rhs(y, gram, b):
    """(gamma', gamma'') on span_C{q0, v0}, as coefficients over (q0, v0).

    y = (a, beta, g, d) holds q = a q0 + beta v0 and v = g q0 + d v0.
    gram = (<q0, q0>, <q0, v0>, <v0, q0>, <v0, v0>), so
    <x, y> = conj(x) . G y for coefficient pairs.  With c = <q, v> and
    k = 2i (Im c - b), gamma'' = k (v - c q) - |v|^2 q.  Returns the
    4-tuple (g, d, gamma''_a, gamma''_beta).
    """
    a, beta, g, d = y
    g11, g12, g21, g22 = gram
    wa, wb = g11 * g + g12 * d, g21 * g + g22 * d  # G v
    c = a.conjugate() * wa + beta.conjugate() * wb
    vv = (g.conjugate() * wa + d.conjugate() * wb).real
    k = 2j * (c.imag - b)
    return g, d, k * (g - c * a) - vv * a, k * (d - c * beta) - vv * beta


def connection_plane_list_reference(init, s_max, step):
    """The plane-coefficient connection route with every stage built as a list.

    The step loop the straight-line stages replaced: each stage zips a
    4-element list and calls `_plane_rhs` on it.  Every operation runs
    in the same order on the same operands as in the integrator.
    """
    steps = G._step_schedule(s_max, step)
    q0, v0 = G._complex(init.x.coords), G._complex(init.v.vec)
    g11, g22 = float(np.vdot(q0, q0).real), float(np.vdot(v0, v0).real)
    g12 = complex(np.vdot(q0, v0))
    g21 = g12.conjugate()
    gram = (g11, g12, g21, g22)
    b = float(init.b)
    y = [1 + 0j, 0j, 0j, 1 + 0j]
    svals = np.empty(len(steps) + 1)
    coef = np.empty((len(steps) + 1, 4), dtype=complex)
    svals[0] = 0.0
    coef[0] = y
    s = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k1 = _plane_rhs(y, gram, b)
        k2 = _plane_rhs([x + half * d for x, d in zip(y, k1)], gram, b)
        k3 = _plane_rhs([x + half * d for x, d in zip(y, k2)], gram, b)
        k4 = _plane_rhs([x + h * d for x, d in zip(y, k3)], gram, b)
        a, beta, g, d = [
            x + sixth * (d1 + 2 * d2 + 2 * d3 + d4) for x, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)
        ]
        wa, wb = g11 * a + g12 * beta, g21 * a + g22 * beta  # G q
        norm = math.sqrt((a.conjugate() * wa + beta.conjugate() * wb).real)
        y = [a / norm, beta / norm, g, d]
        s += h
        svals[i] = s
        coef[i] = y
    z = coef.reshape(-1, 2) @ np.stack([q0, v0])
    return G.GeodesicTrace(svals, G._real(z[0::2]), G._real(z[1::2]), np.full(len(steps) + 1, b))


def hj_list_reference(init, t_max, step):
    """The HJ route recording every row through Chart.from_coords and Chart.push.

    The step loop the one-D recording replaced: each row recomputes
    D = |u|^2 + 1 in both chart maps, and the handoff test reads
    Chart.height.
    """
    steps = G._step_schedule(t_max, step)
    charts = G._charts(init.n)
    cid = init.chart
    chart = charts[cid]
    u = init.x.tolist()
    xi = init.xi.tolist()
    m = 2 * init.n + 2
    svals = np.empty(len(steps) + 1)
    points = np.empty((len(steps) + 1, m))
    vels = np.empty((len(steps) + 1, m))
    events = []
    k1u, k1x, _ = G._hj_rhs(chart, u, xi)
    svals[0] = 0.0
    points[0] = chart.from_coords(u)
    vels[0] = chart.push(u, k1u)
    t = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k2u, k2x, _ = G._hj_rhs(
            chart, [x + half * y for x, y in zip(u, k1u)], [x + half * y for x, y in zip(xi, k1x)]
        )
        k3u, k3x, _ = G._hj_rhs(
            chart, [x + half * y for x, y in zip(u, k2u)], [x + half * y for x, y in zip(xi, k2x)]
        )
        k4u, k4x, _ = G._hj_rhs(
            chart, [x + h * y for x, y in zip(u, k3u)], [x + h * y for x, y in zip(xi, k3x)]
        )
        u = [
            x + sixth * (y1 + 2 * y2 + 2 * y3 + y4)
            for x, y1, y2, y3, y4 in zip(u, k1u, k2u, k3u, k4u)
        ]
        xi = [
            x + sixth * (y1 + 2 * y2 + 2 * y3 + y4)
            for x, y1, y2, y3, y4 in zip(xi, k1x, k2x, k3x, k4x)
        ]
        t += h
        q = chart.from_coords(u)
        k1u, k1x, _ = G._hj_rhs(chart, u, xi)
        svals[i] = t
        points[i] = q
        vels[i] = chart.push(u, k1u)
        if chart.height(q) > G.Chart.HANDOFF_HEIGHT:
            new_cid = 1 - cid
            u, xi = G._hand_off(chart, charts[new_cid], u, xi)
            events.append({"t": t, "from_chart": cid, "to_chart": new_cid})
            cid = new_cid
            chart = charts[cid]
            k1u, k1x, _ = G._hj_rhs(chart, u, xi)
    return G.GeodesicTrace(svals, points, vels, np.full(len(steps) + 1, np.nan), events=events)


@settings(max_examples=40, deadline=None)
@given(_geodesic_starts(), st.sampled_from((0.0, 0.3, 3.0)))
@example((*_pole_crossing_start(2), -0.6, 2.0055, 1e-2), 3.0)
def test_step_loops_are_their_list_forms_bit_for_bit(start, speed):
    p, v, b, length, step = start
    v = TangentVector(p, speed * v.vec, True)
    state = G.GeodesicState(p, v, b)
    lift = G.cotangent_lift(p, v, b)
    for got, want in (
        (G.integrate_connection_geodesic(state, length, step),
         connection_plane_list_reference(state, length, step)),
        (G.integrate_hj_geodesic(lift, length, step), hj_list_reference(lift, length, step)),
    ):
        for name in ("s", "points", "velocities", "b"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert got.events == want.events


def test_pole_crossing_example_hands_off():
    # the explicit example above does cross charts, several times
    p, v = _pole_crossing_start(2)
    lift = G.cotangent_lift(p, TangentVector(p, 3.0 * v.vec, True), -0.6)
    assert len(hj_list_reference(lift, 2.0055, 1e-2).events) > 1


def test_hj_step_loop_records_without_chart_maps(monkeypatch):
    # each row reuses the D of its first-stage field evaluation, so a
    # run with no handoff calls neither chart map and evaluates the
    # field 4 times per step, plus once at the start
    n = 2
    e1, across = np.zeros(2 * n + 2), np.zeros(2 * n + 2)
    e1[0] = across[1] = 1.0
    p = SpherePoint(e1, n)
    # the curve stays in span_C{e1, e2}, where the last coordinate is 0
    lift = G.cotangent_lift(p, TangentVector(p, across, True), 0.4)
    calls = []
    field = G._hj_rhs

    def counting(*args):
        calls.append(1)
        return field(*args)

    def refuse(self, *args):
        raise AssertionError("the HJ step loop called a chart map")

    monkeypatch.setattr(G, "_hj_rhs", counting)
    monkeypatch.setattr(G.Chart, "from_coords", refuse)
    monkeypatch.setattr(G.Chart, "push", refuse)
    trace = G.integrate_hj_geodesic(lift, 1.2345, 1e-2)
    assert not trace.events
    assert len(calls) == 4 * (len(trace.s) - 1) + 1


# ---------------------------------------------------------------------------
# Distance estimation.
# ---------------------------------------------------------------------------


def _ref_directions(p):
    """24 unit horizontal directions at p: a circle for n = 1, seeded random for n > 1."""
    mat = horizontal_frame(p).matrix()
    if mat.shape[0] == 2:
        phis = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        return np.cos(phis)[:, None] * mat[0] + np.sin(phis)[:, None] * mat[1]
    coeffs = np.random.default_rng(0).standard_normal((24, mat.shape[0]))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return coeffs @ mat


def _ref_unit_horizontal(q, w):
    t = times_i(q)
    w = w - (q @ w) * q - (t @ w) * t
    return w / np.linalg.norm(w)


def _ref_scan(q, qy, dirs):
    """Closest of 1400 samples to qy on each of the 24 x 13 grid curves: (t, gap, v, b).

    On z(t) = e1 c1 + e2 c2, e1 = e^(i w1 t), e2 = e^(-i w2 t),
        |z - zy|^2 = |c1|^2 + |c2|^2 + |zy|^2 + 2 Re(<c1, c2> e1 conj(e2))
                     - 2 Re(<c1, zy> e1) - 2 Re(<c2, zy> e2).
    """
    bvals = np.linspace(-3.0, 3.0, 13)
    ts = np.linspace(1e-4, 4.2, 1400)
    root = np.sqrt(1.0 + bvals * bvals)
    w1, w2 = root - bvals, root + bvals
    z0, zy = G._complex(q), G._complex(qy)
    w = np.array([G._complex(v) for v in dirs])[:, None, :]
    c1 = (w2[:, None] * z0 - 1j * w) / (2.0 * root[:, None])
    c2 = (w1[:, None] * z0 + 1j * w) / (2.0 * root[:, None])
    c12 = (c1 * c2.conj()).sum(axis=2)
    c1y, c2y = c1 @ zy.conj(), c2 @ zy.conj()
    const = (abs(c1) ** 2).sum(axis=2) + (abs(c2) ** 2).sum(axis=2) + np.vdot(zy, zy).real
    weights = 2.0 * np.stack([c12.real, -c12.imag, -c1y.real, c1y.imag, -c2y.real, c2y.imag], axis=2)
    out = {}
    for j in range(bvals.size):
        e1, e2 = np.exp(1j * w1[j] * ts), np.exp(-1j * w2[j] * ts)
        e12 = e1 * e2.conj()
        sq = weights[:, j] @ np.stack([e12.real, e12.imag, e1.real, e1.imag, e2.real, e2.imag])
        sq += const[:, j, None]
        for d, k in enumerate(np.argmin(sq, axis=1)):
            out[d, j] = (ts[k], math.sqrt(max(sq[d, k], 0.0)), dirs[d], bvals[j])
    return [out[d, j] for d in range(len(dirs)) for j in range(bvals.size)]


def _ref_coefficients(params):
    """The endpoint alpha z0 + beta w, w = cos(phi) v0 + sin(phi) w0, and its
    (phi, b, t) partials, as the complex (3, 4) matrix over (z0, v0, w0)."""
    phi, b, t = params.tolist()
    cos, sin = math.cos(phi), math.sin(phi)
    root = math.sqrt(1.0 + b * b)
    w1, w2 = root - b, root + b
    total = w1 + w2
    tau, sign = abs(t), math.copysign(1.0, t)
    e1, e2 = np.exp(1j * w1 * tau), np.exp(-1j * w2 * tau)
    alpha = (w2 * e1 + w1 * e2) / total
    beta = 1j * (e2 - e1) / total
    rs, slope = root * total, b / (root * root)
    alpha_b = (w2 * e1 - w1 * e2 - 1j * tau * (e1 + e2)) / rs - alpha * slope
    beta_b = tau * (w2 * e2 - w1 * e1) / rs - beta * slope
    alpha_t = sign * 1j * (e1 - e2) / total
    beta_t = sign * (w1 * e1 + w2 * e2) / total
    return np.array([
        [alpha, 0.0, alpha_b, alpha_t],
        [beta * cos, -beta * sin, beta_b * cos, beta_t * cos],
        [beta * sin, beta * cos, beta_b * sin, beta_t * sin],
    ])


def _ref_residual(params, basis, qy):
    c = _ref_coefficients(params)[:, 0]
    return basis @ np.concatenate([c.real, c.imag]) - qy


def _ref_jacobian(params, basis, qy):
    c = _ref_coefficients(params)[:, 1:]
    return basis @ np.concatenate([c.real, c.imag])


def shooting_reference(x, y):
    """The direction-grid shooting that `cc_distance` replaced, kept as an oracle.

    Scans 24 directions x 13 values of b x 1400 lengths, then refines
    the 6 closest approaches and up to 4 short near misses by
    Levenberg-Marquardt over (phi, b, t).  Returns the shortest length
    whose endpoint gap is at most 1e-5, or None.
    """
    qx, qy = x.coords, y.coords
    candidates = _ref_scan(qx, qy, _ref_directions(x))
    by_gap = sorted(candidates, key=lambda c: c[1])
    near = sorted((c for c in candidates if c[1] < 0.25), key=lambda c: c[0])
    shortlist = []
    for entry in by_gap[:6] + near[:4]:
        if not any(entry is kept for kept in shortlist):
            shortlist.append(entry)
    hits = []
    for t0, _, v0, b0 in shortlist:
        w0 = _ref_unit_horizontal(qx, times_i(v0))
        span = np.stack([G._complex(qx), G._complex(v0), G._complex(w0)], axis=1)
        basis = np.block([[span.real, -span.imag], [span.imag, span.real]])
        res = optimize.least_squares(
            _ref_residual, np.array([0.0, b0, t0]), jac=_ref_jacobian, method="lm",
            xtol=1e-15, ftol=1e-15, gtol=1e-15, x_scale=1.0, max_nfev=600, args=(basis, qy),
        )
        if np.linalg.norm(res.fun) <= 1e-5:
            hits.append(abs(float(res.x[2])))
    return min(hits) if hits else None


def test_cc_distance_coincident_points(rng):
    p = random_point(rng, 1)
    res = G.cc_distance(p, p)
    assert res.estimate == 0.0
    assert res.converged
    assert res.evaluations == 0 and res.misses == 0
    # 1e-13 away, inside FIBRE_TOL with <x, y> real: the fibre branch at phi = 0
    q = E1.coords + np.array([0.0, 1e-13, 0.0, 0.0])
    res = G.cc_distance(E1, SpherePoint(q / np.linalg.norm(q), 1))
    assert res.converged and res.estimate == 0.0 and res.endpoint_gap < 1e-12


@st.composite
def _shots(draw):
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = random_point(rng, n)
    w = random_horizontal(rng, x).vec
    b = draw(st.floats(-3.0, 3.0))
    tau = draw(st.one_of(st.floats(1e-5, 1e-3), st.floats(1e-3, 4.2)))
    return x, w, b, draw(st.sampled_from((1.0, -1.0))) * tau


@settings(max_examples=150, deadline=None)
@given(_shots())
def test_alpha_partials_match_central_differences(shot):
    x, w, b, t = shot
    alpha, beta, alpha_b, alpha_t = G._alpha(b, t)
    # the closed form ends at alpha x + beta w, on the sphere
    end, _ = G.closed_form_geodesic(x, w, b, t)
    want = alpha * G._complex(x.coords) + beta * G._complex(w)
    assert_allclose(G._complex(end[0]), want, rtol=0, atol=1e-14)
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-14
    # a root at t < 0 is the root (-b, -t)
    assert abs(G._alpha(-b, -t)[0] - alpha) < 1e-14
    h = 1e-6
    fd_b = (G._alpha(b + h, t)[0] - G._alpha(b - h, t)[0]) / (2 * h)
    fd_t = (G._alpha(b, t + h)[0] - G._alpha(b, t - h)[0]) / (2 * h)
    assert abs(alpha_b - fd_b) < 1e-8
    assert abs(alpha_t - fd_t) < 1e-8


def test_alpha_grid_matches_alpha():
    budget = G.ShootingBudget()
    bvals, ts, grid = G._alpha_grid(budget)
    assert grid.shape == (budget.num_b, budget.coarse_samples)
    assert not (bvals.flags.writeable or ts.flags.writeable or grid.flags.writeable)
    for i in range(budget.num_b):
        for j in range(0, budget.coarse_samples, 53):
            assert abs(grid[i, j] - G._alpha(bvals[i], ts[j])[0]) < 1e-14


def scan_reference(a, budget):
    """Local minima of |alpha - a| by a loop over every grid point and neighbour."""
    bvals, ts, grid = G._alpha_grid(budget)
    gap = abs(grid - a)
    found = []
    for j in range(ts.size):
        for i in range(bvals.size):
            around = gap[max(i - 1, 0): i + 2, max(j - 1, 0): j + 2]
            if gap[i, j] <= around.min():
                found.append((float(bvals[i]), float(ts[j])))
    return found


@pytest.mark.parametrize("budget", [
    G.ShootingBudget(num_b=7, coarse_samples=90),
    G.ShootingBudget(num_b=1, b_span=0.0, coarse_samples=40),
])
def test_scan_matches_loop_reference(budget, rng):
    for _ in range(5):
        a = complex(*rng.standard_normal(2)) * rng.uniform(0.0, 1.0)
        a /= max(1.0, abs(a))
        assert G._scan(a, budget) == scan_reference(a, budget)


def test_cc_distance_trace_ends_at_y(rng):
    # y = z(-s) on a random curve of the box edge b = -b_span; the curve
    # (b_span, s) also reaches y, so the estimate is at most s, and the
    # trace must be built at the solved length.
    budget = G.ShootingBudget()
    for n in (1, 2, 3):
        x = random_point(rng, n)
        v0 = random_horizontal(rng, x).vec
        for s in (0.05, 0.1, 0.2, 1.0):
            pts, _ = G.closed_form_geodesic(x, v0, -budget.b_span, -s)
            y = SpherePoint(pts[0], n)
            res = G.cc_distance(x, y, budget)
            assert res.converged
            assert np.linalg.norm(res.trace.points[-1] - y.coords) <= budget.endpoint_tol
            assert res.trace.s[-1] == res.estimate <= s + 1e-9


def test_cc_distance_counters(monkeypatch, rng):
    solves = []
    newton = G._newton

    def record(a, b, t, maxiter):
        out = newton(a, b, t, maxiter)
        solves.append((out[2], abs(G._alpha(out[0], out[1])[0] - a)))
        return out

    monkeypatch.setattr(G, "_newton", record)
    budget = G.ShootingBudget()
    for _ in range(4):
        x = random_point(rng, 1)
        v0 = random_horizontal(rng, x).vec
        pts, _ = G.closed_form_geodesic(x, v0, rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0))
        solves.clear()
        res = G.cc_distance(x, SpherePoint(pts[0], 1), budget)
        assert solves and res.converged
        assert res.evaluations == sum(used for used, _ in solves)
        assert all(used <= budget.refine_maxiter for used, _ in solves)
        assert res.misses == sum(miss > budget.endpoint_tol for _, miss in solves)


def test_cc_distance_never_longer_than_shooting_reference(rng):
    longer = 0
    for _ in range(300):
        x, y = random_point(rng, 1), random_point(rng, 1)
        res = G.cc_distance(x, y)
        assert res.converged
        ref = shooting_reference(x, y)
        if ref is not None:
            assert res.estimate <= ref + 1e-9
            longer += ref > res.estimate + 1e-6
    # the reference overestimates on some pairs; the new estimate does not
    assert longer > 0


def test_cc_distance_wider_box_never_shortens(rng):
    # the default box already holds the shortest solution: a box twice
    # as wide in b and longer in t, at the same grid steps, finds none shorter
    wide = G.ShootingBudget(num_b=25, b_span=6.0, t_max=6.0, coarse_samples=2000)
    for _ in range(300):
        x, y = random_point(rng, 1), random_point(rng, 1)
        assert G.cc_distance(x, y, wide).estimate >= G.cc_distance(x, y).estimate - 1e-9


def _random_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def _moved(u, p):
    return SpherePoint(G._real(u @ G._complex(p.coords)), p.n)


def _embedded(p, n):
    """An S^3 point in the first two complex coordinates of S^(2n+1)."""
    z = np.zeros(n + 1, dtype=complex)
    z[:2] = G._complex(p.coords)
    return SpherePoint(G._real(z), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cc_distance_is_unitary_invariant(n, rng):
    for _ in range(8):
        u = _random_unitary(rng, n + 1)
        x, y = random_point(rng, n), random_point(rng, n)
        base = G.cc_distance(x, y)
        moved = G.cc_distance(_moved(u, x), _moved(u, y))
        assert base.converged and moved.converged
        assert abs(moved.estimate - base.estimate) <= 1e-9
        x3, y3 = random_point(rng, 1), random_point(rng, 1)
        flat = G.cc_distance(x3, y3)
        lifted = G.cc_distance(_moved(u, _embedded(x3, n)), _moved(u, _embedded(y3, n)))
        assert flat.converged and lifted.converged
        assert abs(lifted.estimate - flat.estimate) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cc_distance_curve_is_a_connection_geodesic(n, rng):
    # the independent RK4 route, started from the solved (x, w, b),
    # lands on y after the estimated length
    for _ in range(2):
        x, y = random_point(rng, n), random_point(rng, n)
        res = G.cc_distance(x, y)
        assert res.converged
        state = G.GeodesicState(x, TangentVector(x, res.direction, horizontal=True), res.b)
        trace = G.integrate_connection_geodesic(state, res.estimate, 2e-3)
        assert np.linalg.norm(trace.endpoint() - y.coords) <= TOL_CLOSED_FORM


@pytest.mark.parametrize("n", [2, 3])
def test_cc_distance_converges_in_higher_dimensions(n, rng):
    for _ in range(30):
        x, y = random_point(rng, n), random_point(rng, n)
        res = G.cc_distance(x, y)
        assert res.converged
        assert np.linalg.norm(res.trace.points[-1] - y.coords) <= 1e-12
        assert G.riemannian_distance(x, y) <= res.estimate + 1e-9


def test_cc_distance_on_great_circle(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    for arc in (0.4, 1.2, np.pi / 2):
        y = G.great_circle(p, v, arc)
        res = G.cc_distance(p, y)
        assert res.converged
        assert abs(res.estimate - arc) < 1e-4


def test_cc_distance_dominates_webster_distance(rng):
    for _ in range(15):
        x = random_point(rng, 1)
        y = random_point(rng, 1)
        res = G.cc_distance(x, y)
        assert res.converged
        assert G.riemannian_distance(x, y) <= res.estimate + 1e-6


def test_cc_distance_fiber_point(rng):
    # the i-rotated point is reached in closed form at length pi*sqrt(3)/2
    x = random_point(rng, 1)
    y = SpherePoint(times_i(x.coords), 1)
    res = G.cc_distance(x, y)
    assert res.converged
    assert abs(res.estimate - np.pi * np.sqrt(3) / 2) < 1e-6


def _on_fibre(x, phi):
    return SpherePoint(np.cos(phi) * x.coords + np.sin(phi) * times_i(x.coords), x.n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cc_distance_reeb_fibre_closed_form(n, rng):
    x = random_point(rng, n)
    for phi in (0.02, 0.3, np.pi / 2, np.pi, 4.0, 6.25):
        res = G.cc_distance(x, _on_fibre(x, phi))
        assert res.converged
        assert abs(res.estimate - math.sqrt(phi * (2 * math.pi - phi))) <= 1e-9
        assert res.evaluations == 0
        assert np.linalg.norm(res.trace.points[-1] - _on_fibre(x, phi).coords) <= 1e-12


def test_cc_distance_near_the_reeb_fibre(rng):
    # a horizontal step of eps off the fibre moves the distance by at
    # most about eps; the general solve must still hit
    x = random_point(rng, 1)
    for phi in (0.3, 2.0, 4.0):
        for eps in (1e-9, 1e-6, 1e-3):
            q = _on_fibre(x, phi).coords + eps * random_horizontal(rng, x).vec
            res = G.cc_distance(x, SpherePoint(q / np.linalg.norm(q), 1))
            assert res.converged
            assert abs(res.estimate - math.sqrt(phi * (2 * math.pi - phi))) <= 2 * eps + 1e-7


def test_cc_distance_budget_exhaustion(rng):
    x = random_point(rng, 1)
    y = random_point(rng, 1)
    tiny = G.ShootingBudget(
        num_b=1, b_span=0.0, t_max=0.05, coarse_samples=10, refine_maxiter=3,
    )
    res = G.cc_distance(x, y, tiny)
    assert not res.converged
    assert res.endpoint_gap > tiny.endpoint_tol
    assert res.misses >= 1 and res.evaluations <= 3 * res.misses


def test_shooting_budget_fields():
    assert [f.name for f in dataclasses.fields(G.ShootingBudget)] == [
        "num_b", "b_span", "t_max", "coarse_samples", "refine_maxiter", "endpoint_tol",
    ]
    G.ShootingBudget(b_span=0.0, num_b=1)


@pytest.mark.parametrize("kwargs", [
    {"num_b": 0},
    {"coarse_samples": 0},
    {"refine_maxiter": 0},
    {"num_b": 2.0},
    {"t_max": -1.0},
    {"t_max": np.nan},
    {"endpoint_tol": np.nan},
    {"endpoint_tol": 0.0},
    {"b_span": np.inf},
    {"b_span": -1.0},
])
def test_shooting_budget_rejects_out_of_range_fields(kwargs):
    with pytest.raises(ValueError):
        G.ShootingBudget(**kwargs)


@pytest.mark.parametrize("target", [
    np.array([np.nan, 0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, 0.0, 2.0]),          # off the sphere
    np.array([0.0, 1.0, 0.0]),               # wrong length
    SpherePoint(np.eye(6)[1], 2),            # a point of S^5
])
def test_cc_distance_validates_the_target(target):
    with pytest.raises(ValueError):
        G.cc_distance(E1, target)


def test_cc_distance_accepts_a_raw_target(rng):
    y = random_point(rng, 1)
    assert G.cc_distance(E1, y.coords).estimate == G.cc_distance(E1, y).estimate


def test_exp_map_distance_consistency(rng):
    x0 = G.s3_max_point(0.0, 1.0)
    frame = horizontal_frame(x0)
    w = frame.vectors[1].vec * (np.pi / 2)
    reached = G.exp_map(x0, w)
    res = G.cc_distance(x0, reached)
    assert res.converged
    assert res.estimate <= np.pi / 2 + 1e-6


# ---------------------------------------------------------------------------
# Profiles along geodesics and the reach set.
# ---------------------------------------------------------------------------


def _profile_trace(f, x0, direction, num=721, length=2 * np.pi):
    svals = np.linspace(0.0, length, num)
    pts = np.array([G.great_circle(x0, direction, s).coords for s in svals])
    return G.GeodesicTrace(svals, pts, np.zeros_like(pts), np.zeros(num))


def test_cosine_profile_at_unit_parameters():
    f = G.s3_profile_field(0.0, 1.0)
    x0 = G.s3_max_point(0.0, 1.0)
    assert_allclose(x0.coords, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))
    frame = horizontal_frame(x0)
    amp, freq, resid = G.eigen_along_geodesic(f, _profile_trace(f, x0, frame.vectors[0]))
    assert abs(amp - 1.0) < 1e-9
    assert abs(freq - 2.0) < 1e-9
    assert resid < 1e-9


def test_profile_fit_handles_repeated_minima():
    # over a full period the minimum value occurs twice; rounding noise
    # can make the later copy the literal argmin, which must not derail
    # the frequency seeding (regression: a = 0.5, b = 1.5, direction 0)
    f = G.s3_profile_field(0.5, 1.5)
    x0 = G.s3_max_point(0.5, 1.5)
    frame = horizontal_frame(x0)
    for direction in frame.vectors:
        amp, freq, resid = G.eigen_along_geodesic(f, _profile_trace(f, x0, direction))
        assert abs(amp - float(np.hypot(0.5, 1.5))) < 1e-9
        assert abs(freq - 2.0) < 1e-9
        assert resid < 1e-9


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.5, 1.0), (-0.3, 0.8), (1.0, -2.0)])
def test_amplitude_recovers_alpha(a, b):
    f = G.s3_profile_field(a, b)
    alpha = float(np.hypot(a, b))
    x0 = G.s3_max_point(a, b, psi=0.3)
    assert abs(f.value(x0) - alpha) < 1e-12
    frame = horizontal_frame(x0)
    amp, freq, resid = G.eigen_along_geodesic(f, _profile_trace(f, x0, frame.vectors[1]))
    assert abs(amp - alpha) < 1e-9
    assert abs(freq - 2.0) < 1e-9
    assert resid < 1e-9


def test_profile_fit_rejects_constant_field():
    const = ScalarField(Polynomial.constant(4, 1), 1)
    x0 = G.s3_max_point(0.0, 1.0)
    frame = horizontal_frame(x0)
    with pytest.raises(ValueError):
        G.eigen_along_geodesic(const, _profile_trace(const, x0, frame.vectors[0]))


def cosine_fit_reference(f, trace):
    """The scipy curve_fit fit that the variable-projection fit replaced.

    Kept verbatim as the oracle of `eigen_along_geodesic`: a two-parameter
    Levenberg-Marquardt fit of A cos(w s) from the same three seeds,
    keeping the fit with the smallest max residual.
    """
    vals = np.array([f.poly.evaluate(pt) for pt in trace.points])
    spread = float(np.ptp(vals))
    if spread < 1e-12:
        raise ValueError("field is constant along the trace; nothing to fit")
    s = np.asarray(trace.s, dtype=float)
    a0 = vals[0]
    near_min = np.nonzero(vals <= np.min(vals) + 1e-9 * spread)[0]
    s_min = s[int(near_min[0])]
    w0 = np.pi / s_min if s_min > 0 else 1.0

    def model(t, a, w):
        return a * np.cos(w * t)

    best = None
    for seed in (w0, 2.0 * w0, 0.5 * w0):
        try:
            (a_fit, w_fit), _ = optimize.curve_fit(model, s, vals, p0=[a0, seed])
        except RuntimeError:
            continue
        residual = float(np.max(np.abs(model(s, a_fit, w_fit) - vals)))
        if best is None or residual < best[2]:
            best = (float(a_fit), float(abs(w_fit)), residual)
    if best is None:
        raise ValueError("cosine fit did not converge from any seed")
    return best


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    log_b=st.floats(-6.0, 0.25),
    negative=st.booleans(),
    psi=st.floats(0.0, 2 * np.pi),
    num=st.integers(200, 1000),
    length=st.floats(np.pi, 4.5),
)
def test_cosine_fit_matches_curve_fit_reference(a, log_b, negative, psi, num, length):
    # A trace of length in [pi, 4.5] holds one minimum, near s = pi/2,
    # and a grid that misses pi/2 gives an inexact frequency seed, so the
    # iteration has work to do (on the suite's 721-point grid over
    # [0, 2 pi] the seed is already 2).
    b = (-1.0 if negative else 1.0) * 10.0**log_b
    f = G.s3_profile_field(a, b)
    x0 = G.s3_max_point(a, b, psi)
    for direction in horizontal_frame(x0).vectors:
        trace = _profile_trace(f, x0, direction, num, length)
        amp, freq, resid = G.eigen_along_geodesic(f, trace)
        ref_amp, ref_freq, ref_resid = cosine_fit_reference(f, trace)
        assert abs(amp - ref_amp) <= 1e-12
        assert abs(freq - ref_freq) <= 1e-12
        assert resid <= ref_resid + 1e-14


@pytest.mark.parametrize("eps", [1e-3, -2e-2])
def test_cosine_fit_matches_reference_off_an_exact_cosine(eps):
    # eps * x1^2 adds a constant and a cos(2s + phase) term under
    # alpha cos(2s), so no cosine fits exactly.  Both fits reach the same
    # least-squares minimum; the new one sits on it to rounding, while
    # curve_fit's forward-difference LM stops about 1e-12 off in w, which
    # moves a max residual of order |eps| by up to a few 1e-9 relative.
    a, b = 0.4, -1.1
    x0 = G.s3_max_point(a, b)
    bump = Polynomial(4, {(2, 0, 0, 0): Fraction(eps).limit_denominator(10**6)})
    f = ScalarField(G.s3_profile_field(a, b).poly + bump, 1)
    for direction in horizontal_frame(x0).vectors:
        trace = _profile_trace(f, x0, direction)
        amp, freq, resid = G.eigen_along_geodesic(f, trace)
        ref_amp, ref_freq, ref_resid = cosine_fit_reference(f, trace)
        assert 1e-3 * abs(eps) < ref_resid < abs(eps)
        assert resid <= ref_resid * (1 + 1e-8)
        assert abs(amp - ref_amp) < 1e-9 and abs(freq - ref_freq) < 1e-9
        s = trace.s
        vals = np.array([f.poly.evaluate(pt) for pt in trace.points])
        r = vals - amp * np.cos(freq * s)
        r_ref = vals - ref_amp * np.cos(ref_freq * s)
        assert r @ r <= (r_ref @ r_ref) * (1 + 1e-12)
        # the gradient of |r|^2 in (A, w) vanishes to rounding
        assert abs(r @ np.cos(freq * s)) < 1e-11
        assert abs(r @ (amp * s * np.sin(freq * s))) < 1e-10


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 100000)])
def test_cosine_fit_seeds_from_the_first_dip(eps):
    # eps x1 adds a frequency-1 term under alpha cos(2s), so along frame
    # direction 0 the minimum near 3 pi / 2 is the lower one.  Seeded from
    # that global minimum (w0 = 2/3) every run stopped on the rounding floor
    # away from a stationary point, and the fit came out at w = 0.35 with
    # max residual 1.2; the first dip near pi / 2 seeds w0 = 2.
    a, b = 0.4, -1.1
    x0 = G.s3_max_point(a, b)
    f = ScalarField(G.s3_profile_field(a, b).poly + eps * Polynomial.variable(4, 0), 1)
    for direction in horizontal_frame(x0).vectors:
        trace = _profile_trace(f, x0, direction)
        amp, freq, resid = G.eigen_along_geodesic(f, trace)
        assert abs(freq - 2.0) <= 1e-3
        assert resid < 2 * eps
        vals = np.array([f.poly.evaluate(pt) for pt in trace.points])
        _, r, jac = G._projected_cosine(trace.s, vals, freq)
        assert abs(jac @ r) <= 1e-8 * np.linalg.norm(jac) * np.linalg.norm(r)
    # the old seed ends on the floor away from a stationary point: dropped
    direction = horizontal_frame(x0).vectors[0]
    trace = _profile_trace(f, x0, direction)
    vals = np.array([f.poly.evaluate(pt) for pt in trace.points])
    for seed in (2.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0):
        assert G._cosine_fit(trace.s, vals, seed) is None


@pytest.mark.parametrize("w", [0.7, 2.0, 2.3, 5.1])
def test_projected_cosine_jacobian_matches_central_differences(w):
    # J = dr/dw of the reduced residual r(w) = v - A(w) cos(w s), with
    # A(w) moving too; a profile that is not a cosine keeps r away from 0
    s = np.linspace(0.0, 4.0, 300)
    vals = 1.3 * np.cos(2.1 * s) + 0.2 * np.sin(0.7 * s) - 0.1
    amp, r, jac = G._projected_cosine(s, vals, w)
    c = np.cos(w * s)
    assert amp == pytest.approx((vals @ c) / (c @ c), rel=1e-14)
    assert_allclose(r, vals - amp * c, rtol=0, atol=1e-15)
    h = 1e-6
    fd = (G._projected_cosine(s, vals, w + h)[1] - G._projected_cosine(s, vals, w - h)[1]) / (2 * h)
    assert_allclose(jac, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


def test_profile_fit_rejects_non_finite_values():
    f = G.s3_profile_field(0.0, 1.0)
    x0 = G.s3_max_point(0.0, 1.0)
    trace = _profile_trace(f, x0, horizontal_frame(x0).vectors[0])
    trace.points[5, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        G.eigen_along_geodesic(f, trace)


def test_cosine_fit_breakdowns_return_none():
    s = np.linspace(0.0, 2 * np.pi, 721)
    vals = 1.5 * np.cos(2.0 * s)
    assert G._cosine_fit(s, vals, 1.9) is not None
    # J.J = 0: with every s = 0 the columns c and d carry no frequency
    assert G._cosine_fit(np.zeros_like(s), vals, 2.0) is None
    # a non-finite seed, and a step that overflows to a non-finite w
    assert G._cosine_fit(s, vals, np.nan) is None
    with np.errstate(over="ignore", invalid="ignore"):
        assert G._cosine_fit(s, 1e300 * vals, 2.5) is None


def test_profile_fit_skips_a_failed_seed(monkeypatch):
    f = G.s3_profile_field(0.5, 1.5)
    x0 = G.s3_max_point(0.5, 1.5)
    trace = _profile_trace(f, x0, horizontal_frame(x0).vectors[0])
    expected = G.eigen_along_geodesic(f, trace)
    fit = G._cosine_fit
    seeds = []

    def second_seed_fails(s, vals, w):
        seeds.append(w)
        return None if len(seeds) == 2 else fit(s, vals, w)

    monkeypatch.setattr(G, "_cosine_fit", second_seed_fails)
    assert G.eigen_along_geodesic(f, trace) == expected
    assert len(seeds) == 3


def test_profile_fit_fails_when_every_seed_breaks_down():
    # a trace whose arc lengths are all 0 leaves the frequency undetermined
    f = G.s3_profile_field(0.0, 1.0)
    x0 = G.s3_max_point(0.0, 1.0)
    trace = _profile_trace(f, x0, horizontal_frame(x0).vectors[0])
    flat = G.GeodesicTrace(np.zeros_like(trace.s), trace.points, trace.velocities, trace.b)
    with pytest.raises(ValueError, match="did not converge from any seed"):
        G.eigen_along_geodesic(f, flat)


def test_reach_set_requires_nonzero_b():
    with pytest.raises(ValueError):
        G.reach_set_half_pi(1.0, 0.0)
    with pytest.raises(ValueError):
        G.s3_max_point(1.0, 0.0)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.7, 1.1)])
def test_reach_set_is_degenerate_critical_circle(a, b):
    alpha = float(np.hypot(a, b))
    samples = G.reach_set_half_pi(a, b, num_samples=48)
    assert len(samples) == 48
    for s in samples:
        assert s.set_residual < 1e-8
        assert abs(s.f_value + alpha) < 1e-9
        assert s.grad_norm < 1e-9
        assert abs(s.hess_tt) < 1e-9


@pytest.mark.parametrize("a,b,psi", [(0.0, 1.0, 0.0), (0.7, -1.1, 0.4)])
def test_reach_set_points_are_the_great_circle_points(monkeypatch, a, b, psi):
    # the reach set makes its points as one stack, guarded once: each is
    # bitwise great_circle at pi/2 along its sampled direction
    x0 = G.s3_max_point(a, b, psi)
    mat = horizontal_frame(x0).matrix()
    phis = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    expected = [G.great_circle(x0, np.cos(phi) * mat[0] + np.sin(phi) * mat[1], np.pi / 2).coords
                for phi in phis]
    calls = []

    def guard(q, v, *args, _check=G._check_tangent, **kwargs):
        calls.append(np.shape(v))
        return _check(q, v, *args, **kwargs)

    def forbidden(*args):
        raise AssertionError("one great_circle call per sample")

    monkeypatch.setattr(G, "_check_tangent", guard)
    monkeypatch.setattr(G, "great_circle", forbidden)
    samples = G.reach_set_half_pi(a, b, num_samples=24, psi=psi)
    assert calls == [(24, 4)]
    assert [s.point.coords.tobytes() for s in samples] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("a", [-1.5, -1.0, -0.3, 0.0, 0.3, 1.0, 1.5])
def test_s3_suite_at_small_b(a):
    # alpha - a (a > 0) and alpha + a (a < 0) cancel as b -> 0, and at
    # a > 0 the plane slope c = b / (alpha - a) grows like 2a/b
    for b in (1e-12, -1e-9, 1e-6, -1e-3, 0.25, -1.5):
        report = run_suite(Config(suite="s3", a=a, b=b))
        assert all(math.isfinite(c.residual) for c in report.checks)
        assert report.passed


def test_distance_checks_record_the_search_box():
    budget = G.ShootingBudget()
    geo = run_suite(Config(suite="geodesics", n=1, hj_pairs=1, cc_pairs=2, step_size=2e-3))
    s3 = run_suite(Config(suite="s3", a=0.5, b=1.5))
    for report, check_id in ((geo, "geodesics.contraction"), (s3, "s3.exp_map")):
        (check,) = [c for c in report.checks if c.id == check_id]
        assert check.inputs["b_span"] == budget.b_span
        assert check.inputs["t_max"] == budget.t_max


def test_reach_set_zero_a_matches_displayed_circle():
    # with a = 0, b = 1 the target is x2 = -x1, y2 = -y1, x1^2 + y1^2 = 1/2
    for s in G.reach_set_half_pi(0.0, 1.0, num_samples=16):
        x1, x2, y1, y2 = s.point.coords
        assert abs(x2 + x1) < 1e-9
        assert abs(y2 + y1) < 1e-9
        assert abs(x1 * x1 + y1 * y1 - 0.5) < 1e-9


def test_reach_set_residual_reads_only_the_displayed_circle():
    # (r, 0, -c r, 0) is a unit point of the circle that the displayed
    # slots give when read in storage order (x1, x2, y1, y2); it lies
    # about 1.02 from the target circle
    a, b = 0.7, 1.1
    alpha, minus, _ = G._alpha_parts(a, b)
    c, r = b / minus, math.sqrt(minus / (2.0 * alpha))
    point = SpherePoint(np.array([r, 0.0, -c * r, 0.0]), 1)
    assert G.reach_set_residual(point.coords, a, b) > 0.5


# ---------------------------------------------------------------------------
# Trace export.
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path, rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, 0.5), 0.1, 1e-3)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "s", "x1", "x2", "x3", "x4", "v1", "v2", "v3", "v4",
        "b", "theta_vdot", "speed",
    ]
    assert len(rows) == len(trace.s) + 1
    first = [float(x) for x in rows[1]]
    assert first[0] == 0.0
    assert_allclose(first[1:5], p.coords)
    assert first[9] == 0.5
    last = [float(x) for x in rows[-1]]
    assert_allclose(last[1:5], trace.endpoint())
