import csv
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

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
SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        want = p.coords * np.cos(si) + v.vec * np.sin(si)
        assert_allclose(row, want / np.linalg.norm(want), rtol=0, atol=0)
        assert_allclose(G.great_circle(p, v, si).coords, row, rtol=0, atol=0)
        assert_allclose(G.great_circle(p, v, float(si)).coords, row, rtol=0, atol=0)
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


def test_hj_trace_records_the_reeb_component(rng):
    # iq.p is a first integral of the ambient flow, and the lift's Reeb
    # component: every row records its start value as b, as the
    # connection route records its multiplier
    for n in (1, 2, 3):
        for b in (0.0, 1.0, -1.5):
            p = random_point(rng, n)
            lift = G.cotangent_lift(p, random_horizontal(rng, p), b)
            trace = G.integrate_hj_geodesic(lift, 0.5, 1e-2)
            assert trace.b.shape == trace.s.shape
            assert np.all(trace.b == math.fsum(times_i(lift.x) * lift.xi))
            assert abs(trace.b[0] - b) <= 1e-12


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


def _dot(u, w):
    """u.w for sequences of floats, added left to right from 0.

    The list forms' own dot product: builtin sum() adds floats left to
    right only up to CPython 3.11, and it must not decide their bits.
    """
    acc = 0
    for x, y in zip(u, w):
        acc = acc + x * y
    return acc


# The HJ route in stereographic charts is the form the ambient route
# replaced, kept here as its oracle: ChartReference, the chart field
# `hj_rhs_list_reference` and the chart loop `hj_list_reference`, which
# hands the state to the other chart once the point climbs past this height.
HANDOFF_HEIGHT = 0.55


class ChartReference:
    """Stereographic chart from the pole sign * e_(2n+2), in matrix form.

    The chart maps take any sequence of floats and return a list.  The
    library keeps no chart; this class serves the chart oracle of the HJ
    route and the matrix cometric it is checked against.
    """

    def __init__(self, n, sign):
        self.n = n
        self.sign = sign
        self.m = 2 * n + 2

    @classmethod
    def of(cls, state):
        """(chart, u, xi) of an ambient CotangentState: the chart whose pole is
        not on the state's side, its coordinates u and the covector J^T xi."""
        q = state.x.tolist()
        chart = cls(state.n, 1 if q[-1] <= 0.0 else -1)
        u = chart.to_coords(q)
        return chart, np.array(u), np.array(chart.pull(u, state.xi.tolist()))

    def pole(self):
        p = np.zeros(self.m)
        p[-1] = self.sign
        return p

    def height(self, q):
        return self.sign * q[-1]

    def to_coords(self, q):
        h = self.height(q)
        if h >= 1.0 - 1e-14:
            raise ValueError("point at the chart pole")
        return [x / (1.0 - h) for x in q[:-1]]

    def from_coords(self, u):
        d = _dot(u, u) + 1.0
        q = [2.0 * x / d for x in u]
        q.append(self.sign * (d - 2.0) / d)
        return q

    def jacobian(self, u):
        """d(from_coords)/du, a (2n+2, 2n+1) matrix; conformal columns."""
        u = np.asarray(u, dtype=float)
        d = float(u @ u) + 1.0
        jac = np.zeros((self.m, self.m - 1))
        jac[: self.m - 1, :] = (2.0 / d) * np.eye(self.m - 1)
        pm = self.pole() - np.concatenate([u, [0.0]])
        jac += (4.0 / (d * d)) * np.outer(pm, u)
        return jac

    def push(self, u, x):
        """J x without building J: ((2/D) x - (4/D^2) u (u.x), s (4/D^2) u.x)."""
        d = _dot(u, u) + 1.0
        r = 2.0 / d
        k = 4.0 * _dot(u, x) / (d * d)
        out = [r * z - k * y for y, z in zip(u, x)]
        out.append(self.sign * k)
        return out

    def pull(self, u, w):
        """J^T w without building J: (2/D) w' + (4/D^2) u (s w_last - u.w')."""
        d = _dot(u, u) + 1.0
        r = 2.0 / d
        k = 4.0 * (self.sign * w[-1] - _dot(u, w)) / (d * d)
        return [r * z + k * y for y, z in zip(u, w)]

    def cometric(self, u):
        """g^ij(u) = (D^2/4) I - (D^4/16) m m^T with m_i = <dq/du_i, iq>.

        This is the pushforward of the horizontal projector; the chart
        Jacobian J satisfies J^T J = (4/D^2) I and J^T q = 0, so only
        the Reeb covector column survives the subtraction.
        """
        d = float(u @ u) + 1.0
        q = self.from_coords(u)
        jac = self.jacobian(u)
        mvec = jac.T @ times_i(q)
        return (d * d / 4.0) * np.eye(self.m - 1) - (d**4 / 16.0) * np.outer(mvec, mvec)


def hamiltonian_reference(chart, u, xi):
    """H = (1/2) xi^T g xi from the matrix cometric."""
    return 0.5 * float(xi @ chart.cometric(u) @ xi)


def hand_off_reference(old, new, u, xi):
    """(u, xi) carried from chart `old` to chart `new` through push, to_coords and pull."""
    d = _dot(u, u) + 1.0
    r = 0.25 * d * d
    m_amb = old.push(u, [r * x for x in xi])
    u_new = new.to_coords(old.from_coords(u))
    return u_new, new.pull(u_new, m_amb)


def test_canonical_lift_pairings(rng):
    p = random_point(rng, 1)
    frame = horizontal_frame(p)
    v = frame.vectors[0]
    lift = G.cotangent_lift(p, v, 1.0)
    # xi(T) = 1 and xi(X_j) = g(v, X_j), paired in ambient coordinates
    assert abs(float(lift.xi @ times_i(p.coords)) - 1.0) < 1e-12
    assert abs(float(lift.xi @ frame.vectors[0].vec) - 1.0) < 1e-12
    assert abs(float(lift.xi @ frame.vectors[1].vec)) < 1e-12  # orthogonal frame vector
    # the chart covector J^T xi pairs the same through the Jacobian columns
    chart, u, xi = ChartReference.of(lift)
    jac = chart.jacobian(u)

    def pair(ambient_vec):
        coeff = np.linalg.lstsq(jac, ambient_vec, rcond=None)[0]
        return float(xi @ coeff)

    assert abs(pair(times_i(p.coords)) - 1.0) < 1e-9
    assert abs(pair(frame.vectors[0].vec) - 1.0) < 1e-9
    assert abs(pair(frame.vectors[1].vec)) < 1e-9
    # cometric inversion returns the velocity, in the chart and in the flow
    assert_allclose(jac @ (chart.cometric(u) @ xi), v.vec, atol=1e-9)
    assert_allclose(G._hj_rhs(lift.x.tolist(), lift.xi.tolist())[0], v.vec, rtol=0, atol=1e-14)


def test_canonical_lift_zero_velocity(rng):
    p = random_point(rng, 1)
    lift = G.cotangent_lift(p, np.zeros(4), 1.0)
    chart, u, xi = ChartReference.of(lift)
    jac = chart.jacobian(u)
    vel = jac @ (chart.cometric(u) @ xi)
    assert np.max(np.abs(vel)) < 1e-12  # vanishes on the horizontal space
    assert np.max(np.abs(G._hj_rhs(lift.x.tolist(), lift.xi.tolist())[0])) < 1e-15
    assert hamiltonian_reference(chart, u, xi) < 1e-12
    # still pairs to one against the Reeb direction
    coeff = np.linalg.lstsq(jac, times_i(p.coords), rcond=None)[0]
    assert abs(float(xi @ coeff) - 1.0) < 1e-9
    assert abs(float(lift.xi @ times_i(p.coords)) - 1.0) < 1e-12


def test_hamiltonian_value(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    lift = G.cotangent_lift(p, v, 0.7)
    assert abs(hamiltonian_reference(*ChartReference.of(lift)) - 0.5) < 1e-12


# |u| at which a chart point reaches the handoff height: the height is
# (D - 2)/D with D = |u|^2 + 1.
HANDOFF_RADIUS = math.sqrt((1 + HANDOFF_HEIGHT) / (1 - HANDOFF_HEIGHT))


@st.composite
def _chart_states(draw):
    n = draw(st.integers(1, 3))
    chart = ChartReference(n, draw(st.sampled_from((1, -1))))
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
    # the ambient field pushed through a chart against the matrix oracle.
    # The ambient covector p = J (D^2/4) xi has J^T p = xi; along the flow
    # u' = (D^2/4) J^T q' must be g xi, and xi' = J^T p' + (d/dt J^T) p
    # must be -dH/du, by central differences of (1/2) xi^T g(u) xi
    chart, u, xi = state
    d = float(u @ u) + 1.0
    q, p = chart.from_coords(u), chart.push(u, (0.25 * d * d) * xi)
    dq, dp = G._hj_rhs(q, p)
    du = 0.25 * d * d * np.array(chart.pull(u, dq))
    gxi = chart.cometric(u) @ xi
    assert_allclose(du, gxi, rtol=0, atol=1e-12 * (1.0 + float(np.max(np.abs(gxi)))))

    def ham(x):
        return 0.5 * float(xi @ chart.cometric(x) @ xi)

    h = 1e-5
    fd = np.array([-(ham(u + h * e) - ham(u - h * e)) / (2 * h) for e in np.eye(u.size)])
    speed = max(float(np.linalg.norm(du)), 1e-300)  # (d/dt J^T) p by a central difference along du
    e = du / speed
    moved = speed * (np.array(chart.pull(u + h * e, p)) - np.array(chart.pull(u - h * e, p))) / (2 * h)
    dxi = np.array(chart.pull(u, dp)) + moved
    scale = 1.0 + float(np.max(np.abs(fd)))
    assert np.max(np.abs(dxi - fd)) < 1e-7 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hj_field_keeps_its_first_integrals(n, rng):
    # H is unchanged by p -> p + lambda q, so d|q|^2/dt = 2 q.q', d(q.p)/dt and
    # d(iq.p)/dt vanish wherever |q| = 1.  The field of the non-homogeneous
    # (1/2)(|p|^2 - (q.p)^2 - (iq.p)^2) fails the second: there d(q.p)/dt = |p|^2
    for _ in range(200):
        q = random_point(rng, n).coords
        p = rng.uniform(0.1, 3.0) * rng.standard_normal(2 * n + 2)
        dq, dp = (np.array(x) for x in G._hj_rhs(q.tolist(), p.tolist()))
        scale = 1e-14 * (1.0 + float(p @ p))
        assert abs(float(q @ dq)) <= scale
        assert abs(float(dq @ p + q @ dp)) <= scale
        assert abs(float(times_i(dq) @ p + times_i(q) @ dp)) <= scale
        iq, a, c = times_i(q), float(q @ p), float(times_i(q) @ p)
        plain_dq, plain_dp = p - a * q - c * iq, a * p - c * times_i(p)
        assert float(plain_dq @ p + q @ plain_dp) == pytest.approx(float(p @ p), rel=1e-12)


def test_hj_flow_builds_no_matrix(monkeypatch, rng):
    # the matrix form (J, g and H) lives only in ChartReference: the
    # library keeps no chart class, and the flow calls none of the numpy
    # builders the matrix form needs
    for name in ("Chart", "_charts", "hamiltonian"):
        assert not hasattr(G, name)
    v = TangentVector(E1, np.array([0.0, 0.0, 0.0, 1.0]), True)
    p = random_point(rng, 2)
    lifts = [G.cotangent_lift(E1, v, 0.0), G.cotangent_lift(p, random_horizontal(rng, p), 1.0)]

    def refuse(*args, **kwargs):
        raise AssertionError("the HJ flow built a chart matrix")

    for name in ("zeros", "eye", "outer"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    through = G.integrate_hj_geodesic(lifts[0], 3.0, 1e-2)
    assert np.max(through.points[:, -1]) > 0.999  # the run passes an old chart pole
    assert through.events == []
    G.integrate_hj_geodesic(lifts[1], 0.5, 1e-2)


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
            run()
            counts.setdefault(name, []).append(len(calls))
    for name, (short, long) in counts.items():
        assert long == short, name


def test_hand_off_matches_solve_form(rng):
    # the chart oracle's handoff: J^T J = (4/D^2) I, so its closed form
    # replaces a linear solve
    for n in (1, 2, 3):
        for s in (1, -1):
            old, new = ChartReference(n, s), ChartReference(n, -s)
            for _ in range(10):
                d = rng.standard_normal(2 * n + 1)
                u = d / np.linalg.norm(d) * rng.uniform(HANDOFF_RADIUS, 1.2 * HANDOFF_RADIUS)
                xi = rng.standard_normal(2 * n + 1)
                u_new, xi_new = hand_off_reference(old, new, u, xi)
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
    # the polar great circle from E1 climbs past the handoff height, so the
    # chart oracle hands off on it, while the ambient route has no chart
    # and runs straight through
    v = TangentVector(E1, np.array([0.0, 0.0, 0.0, 1.0]), True)
    lift = G.cotangent_lift(E1, v, 0.0)
    oracle = hj_list_reference(lift, 3.0, 1e-3)
    assert oracle.events, "the chart oracle must hand off along the polar circle"
    assert oracle.events[0]["from_sign"] != oracle.events[0]["to_sign"]
    hj = G.integrate_hj_geodesic(lift, 3.0, 1e-3)
    assert hj.events == []
    assert np.max(np.linalg.norm(hj.points - oracle.points, axis=1)) <= HJ_ROUTE_GAP
    conn = G.integrate_connection_geodesic(G.GeodesicState(E1, v, 0.0), 3.0, 1e-3)
    assert np.max(np.linalg.norm(conn.points - hj.points, axis=1)) < 1e-5


def test_hj_reparametrization_invariance(rng):
    p = random_point(rng, 1)
    v = random_horizontal(rng, p)
    lift = G.cotangent_lift(p, v, 1.0)
    doubled = G.CotangentState(lift.x, 2.0 * lift.xi, 1)
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


def _hj_rhs_reference(q, p):
    """(dH/dp, -dH/dq) of the ambient Hamiltonian on numpy vectors."""
    iq = times_i(q)
    a, c = float(q @ p), float(iq @ p)
    return float(q @ q) * p - a * q - c * iq, a * p - c * times_i(p) - float(p @ p) * q


def hj_rk4_reference(init, t_max, step):
    """The ambient HJ route as RK4 on numpy vectors, recording dH/dp after every step."""
    steps = G._step_schedule(t_max, step)
    q, p = init.x.copy(), init.xi.copy()
    svals, points, vels = [0.0], [q], [_hj_rhs_reference(q, p)[0]]
    t = 0.0
    for h in steps:
        k1q, k1p = _hj_rhs_reference(q, p)
        k2q, k2p = _hj_rhs_reference(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p = _hj_rhs_reference(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = _hj_rhs_reference(q + h * k3q, p + h * k3p)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        t += h
        svals.append(t)
        points.append(q)
        vels.append(_hj_rhs_reference(q, p)[0])
    return G.GeodesicTrace(
        np.array(svals), np.array(points), np.array(vels), np.full(len(svals), np.nan)
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
    d = _dot(u, u) + 1.0
    w = _mul_i_reference(chart.from_coords(u))
    m = chart.pull(u, w)
    c = _dot(m, xi)
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
    a = _dot(u, w) - chart.sign * w[-1]
    uxi = _dot(u, xi)
    wxi = _dot(w, xi)
    r, k = -4.0 / (d * d), 16.0 * a * uxi / d**3
    pulled = chart.pull(u, _mul_i_reference(chart.push(u, xi)))
    e = d * _dot(xi, xi) - 0.5 * d**3 * c * c
    f = d**4 / 8.0 * c
    # grad c = Hess xi - pulled, Hess xi = r (uxi w' + (w'.xi) u + a xi) + k u
    return du, [
        -0.5 * (e * y - f * ((r * (uxi * x + wxi * y + a * z) + k * y) - p))
        for x, y, z, p in zip(w, u, xi, pulled)
    ]


@settings(max_examples=120, deadline=None)
@given(_chart_states())
def test_hj_rhs_matches_the_chart_map_closed_form(state):
    # the chart oracle's polynomial field against the closed form through push and pull
    chart, u, xi = state
    got = hj_rhs_list_reference(chart.sign, u.tolist(), xi.tolist())[:2]
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
    ham = 0.125 * d * d * float(xi @ xi) - 0.5 * float(m @ xi) ** 2
    assert abs(ham - hamiltonian_reference(chart, u, xi)) <= 1e-12 * max(1.0, 0.125 * d * d * float(xi @ xi))


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


@settings(max_examples=40, deadline=None)
@given(_geodesic_starts(), st.sampled_from((0.0, 0.3, 3.0)))
def test_plane_route_matches_the_gram_route(start, speed):
    # the eight floats over an orthonormal basis against the four complex
    # coefficients over (q0, v0) that the integrator stepped before
    p, v, b, length, step = start
    state = G.GeodesicState(p, TangentVector(p, speed * v.vec, True), b)
    _assert_same_trace(
        G.integrate_connection_geodesic(state, length, step),
        connection_gram_reference(state, length, step),
    )


def _basis_starts(rng):
    """(point, unit horizontal direction) pairs: random ones at n = 1, 2, 3, the
    pole-crossing start, and points of norm 1 -+ 5e-13, inside UNIT_TOL."""
    starts = [_pole_crossing_start(n) for n in (1, 2, 3)]
    for n in (1, 2, 3):
        for scale in (1.0, 1.0, 1.0 - 5e-13, 1.0 + 5e-13):
            p = random_point(rng, n)
            v = random_horizontal(rng, p).vec
            p = SpherePoint(scale * p.coords, n)
            starts.append((p, TangentVector(p, v, True)))
    return starts


@pytest.mark.parametrize("speed", [0.0, 0.3, 3.0])
def test_plane_basis_is_orthonormal_and_rows_stay_unit(speed, rng):
    for p, v in _basis_starts(rng):
        v = TangentVector(p, speed * v.vec, True)
        q0, v0 = G._complex(p.coords), G._complex(v.vec)
        basis, y = G._plane_basis(q0, v0)
        gram = basis.conj() @ basis.T  # <e_j, e_k>
        assert np.max(np.abs(gram - np.diag([1.0, 1.0 if speed else 0.0]))) <= 1e-15
        # q0 = |q0| e1 and v0 = <e1, v0> e1 + |w| e2
        coef = np.array(y).view(complex).reshape(2, 2)
        assert np.max(np.abs(coef @ basis - [q0, v0])) <= 1e-15 * max(1.0, speed)
        trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, -0.6), 1.2345, 5e-3)
        assert np.max(np.abs(trace.points[0] - p.coords)) <= 1e-15
        assert np.max(np.abs(trace.velocities[0] - v.vec)) <= 1e-15 * max(1.0, speed)
        assert np.max(np.abs(np.linalg.norm(trace.points[1:], axis=1) - 1.0)) <= 1e-15
        if speed == 0.0:
            assert np.all(trace.velocities == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("speed", [0.0, 0.3, 3.0])
def test_plane_route_on_every_gram_matrix(n, speed, rng):
    # the plane route steps over an orthonormal basis of span_C{q0, v0}, whatever
    # the Gram matrix of (q0, v0) is: a zero velocity leaves e2 = 0, and a
    # non-unit one scales d
    for b in (0.0, 1.3, -2.2):
        p = random_point(rng, n)
        v = TangentVector(p, speed * random_horizontal(rng, p).vec, True)
        state = G.GeodesicState(p, v, b)
        got = G.integrate_connection_geodesic(state, 1.2345, 5e-3)
        _assert_same_trace(got, connection_rk4_reference(state, 1.2345, 5e-3))
        _assert_same_trace(got, connection_scalar_rk4_reference(state, 1.2345, 5e-3))
        _assert_same_trace(got, connection_gram_reference(state, 1.2345, 5e-3))
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
        with pytest.raises(ValueError, match="cotangent position has a non-finite entry"):
            G.CotangentState(x, lift.xi, 1)
        xi[k] = bad
        with pytest.raises(ValueError, match="cotangent covector has a non-finite entry"):
            G.CotangentState(lift.x, xi, 1)


def test_cotangent_state_position_is_unit(rng):
    # the state is ambient, so its position is a point of the sphere, held
    # to the unit check of SpherePoint; the covector has its shape
    p = random_point(rng, 2)
    lift = G.cotangent_lift(p, random_horizontal(rng, p), 0.5)
    for scale in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 0.0):
        with pytest.raises(ValueError, match="point is not on the unit sphere"):
            G.CotangentState(scale * lift.x, lift.xi, 2)
    for scale in (1.0 - 5e-13, 1.0 + 5e-13):
        assert np.array_equal(G.CotangentState(scale * lift.x, lift.xi, 2).x, scale * lift.x)
    with pytest.raises(ValueError, match="expected 4 coordinates"):
        G.CotangentState(lift.x, lift.xi, 1)
    with pytest.raises(ValueError, match="cotangent covector of shape"):
        G.CotangentState(lift.x, lift.xi[:-1], 2)


def test_cotangent_state_n_is_a_positive_integer():
    # True and 1.0 were accepted and stored as n
    p, v = _pole_crossing_start(1)
    lift = G.cotangent_lift(p, v, 0.5)
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            G.CotangentState(lift.x, lift.xi, bad)
    assert type(G.CotangentState(lift.x, lift.xi, np.int64(1)).n) is int


def test_pole_crossing_start_hands_off():
    # the E1 start of the property tests crosses a pole of the chart
    # oracle, which hands off there; the ambient route has no event and
    # matches its numpy reference
    for n in (1, 2, 3):
        p, v = _pole_crossing_start(n)
        lift = G.cotangent_lift(p, v, 0.5)
        assert hj_list_reference(lift, 2.005, 1e-2).events
        _assert_same_trace(
            G.integrate_hj_geodesic(lift, 2.005, 1e-2), hj_rk4_reference(lift, 2.005, 1e-2)
        )


# ---------------------------------------------------------------------------
# The straight-line step loops against their list-form loops, bit for bit.
# ---------------------------------------------------------------------------


def connection_gram_reference(init, s_max, step):
    """The connection route as RK4 on four complex plane coefficients over (q0, v0).

    The step loop the eight-float route replaced.  q = a q0 + beta v0 and
    v = g q0 + d v0, with every Hermitian product, the renormalization's
    included, read from the Gram matrix G of (q0, v0) as it is:
    <x, y> = conj(x) . G y for coefficient pairs, and no orthonormalization.
    """
    steps = G._step_schedule(s_max, step)
    q0, v0 = G._complex(init.x.coords), G._complex(init.v.vec)
    g11, g22 = float(np.vdot(q0, q0).real), float(np.vdot(v0, v0).real)
    g12 = complex(np.vdot(q0, v0))
    g21 = g12.conjugate()
    b = float(init.b)
    a, beta, g, d = 1 + 0j, 0j, 0j, 1 + 0j
    svals = np.empty(len(steps) + 1)
    coef = np.empty((len(steps) + 1, 4), dtype=complex)
    svals[0] = 0.0
    coef[0] = a, beta, g, d
    s = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        # stage 1 at (a, beta, g, d); wa, wb = G v
        wa, wb = g11 * g + g12 * d, g21 * g + g22 * d
        c = a.conjugate() * wa + beta.conjugate() * wb
        vv = (g.conjugate() * wa + d.conjugate() * wb).real
        k = 2j * (c.imag - b)
        ga1, gb1 = k * (g - c * a) - vv * a, k * (d - c * beta) - vv * beta
        # stage 2 at y + (h/2) k1, k1 = (g, d, ga1, gb1)
        a2, beta2, g2, d2 = a + half * g, beta + half * d, g + half * ga1, d + half * gb1
        wa, wb = g11 * g2 + g12 * d2, g21 * g2 + g22 * d2
        c = a2.conjugate() * wa + beta2.conjugate() * wb
        vv = (g2.conjugate() * wa + d2.conjugate() * wb).real
        k = 2j * (c.imag - b)
        ga2, gb2 = k * (g2 - c * a2) - vv * a2, k * (d2 - c * beta2) - vv * beta2
        # stage 3 at y + (h/2) k2
        a3, beta3, g3, d3 = a + half * g2, beta + half * d2, g + half * ga2, d + half * gb2
        wa, wb = g11 * g3 + g12 * d3, g21 * g3 + g22 * d3
        c = a3.conjugate() * wa + beta3.conjugate() * wb
        vv = (g3.conjugate() * wa + d3.conjugate() * wb).real
        k = 2j * (c.imag - b)
        ga3, gb3 = k * (g3 - c * a3) - vv * a3, k * (d3 - c * beta3) - vv * beta3
        # stage 4 at y + h k3
        a4, beta4, g4, d4 = a + h * g3, beta + h * d3, g + h * ga3, d + h * gb3
        wa, wb = g11 * g4 + g12 * d4, g21 * g4 + g22 * d4
        c = a4.conjugate() * wa + beta4.conjugate() * wb
        vv = (g4.conjugate() * wa + d4.conjugate() * wb).real
        k = 2j * (c.imag - b)
        ga4, gb4 = k * (g4 - c * a4) - vv * a4, k * (d4 - c * beta4) - vv * beta4
        a = a + sixth * (g + 2 * g2 + 2 * g3 + g4)
        beta = beta + sixth * (d + 2 * d2 + 2 * d3 + d4)
        g = g + sixth * (ga1 + 2 * ga2 + 2 * ga3 + ga4)
        d = d + sixth * (gb1 + 2 * gb2 + 2 * gb3 + gb4)
        wa, wb = g11 * a + g12 * beta, g21 * a + g22 * beta  # G q
        norm = math.sqrt((a.conjugate() * wa + beta.conjugate() * wb).real)
        a, beta = a / norm, beta / norm
        s += h
        svals[i] = s
        coef[i] = a, beta, g, d
    z = coef.reshape(-1, 2) @ np.stack([q0, v0])
    return G.GeodesicTrace(svals, G._real(z[0::2]), G._real(z[1::2]), np.full(len(steps) + 1, b))


def _plane_rhs(y, b):
    """(gamma', gamma'') on span_C{q0, v0}, as the eight floats of its coefficients.

    y = (ar, ai, br, bi, gr, gi, dr, di) holds the real and imaginary
    parts of q = a e1 + beta e2 and v = g e1 + d e2 over a
    Hermitian-orthonormal basis (e1, e2), so c = <q, v> = conj(a) g +
    conj(beta) d and |v|^2 = |g|^2 + |d|^2.  With k = 2i (Im c - b),
    gamma'' = k (v - c q) - |v|^2 q.  Returns the 8-list (g, d, gamma'').
    """
    ar, ai, br, bi, gr, gi, dr, di = y
    cr = ar * gr + ai * gi + br * dr + bi * di
    ci = ar * gi - ai * gr + br * di - bi * dr
    vv = gr * gr + gi * gi + dr * dr + di * di
    k = 2.0 * (ci - b)  # k / i
    ur, ui = gr - (cr * ar - ci * ai), gi - (cr * ai + ci * ar)  # v - c q, over e1
    wr, wi = dr - (cr * br - ci * bi), di - (cr * bi + ci * br)  # over e2
    return [gr, gi, dr, di, -k * ui - vv * ar, k * ur - vv * ai, -k * wi - vv * br, k * wr - vv * bi]


def connection_plane_list_reference(init, s_max, step):
    """The eight-float connection route with every stage built as a list.

    The list form of the integrator's written-out stages: each stage zips an
    8-element list and calls `_plane_rhs` on it.  Every operation runs
    in the same order on the same operands as in the integrator, over
    the library's basis `G._plane_basis`.
    """
    steps = G._step_schedule(s_max, step)
    basis, y = G._plane_basis(G._complex(init.x.coords), G._complex(init.v.vec))
    b = float(init.b)
    y = list(y)
    svals = np.empty(len(steps) + 1)
    rows = np.empty((len(steps) + 1, 8))
    svals[0] = 0.0
    rows[0] = y
    s = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k1 = _plane_rhs(y, b)
        k2 = _plane_rhs([x + half * d for x, d in zip(y, k1)], b)
        k3 = _plane_rhs([x + half * d for x, d in zip(y, k2)], b)
        k4 = _plane_rhs([x + h * d for x, d in zip(y, k3)], b)
        y = [x + sixth * (d1 + 2 * d2 + 2 * d3 + d4) for x, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
        norm = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + y[3] * y[3])
        y = [x / norm for x in y[:4]] + y[4:]
        s += h
        svals[i] = s
        rows[i] = y
    z = rows.view(complex).reshape(-1, 2) @ basis
    return G.GeodesicTrace(svals, G._real(z[0::2]), G._real(z[1::2]), np.full(len(steps) + 1, b))


def hj_rhs_list_reference(s, u, xi):
    """The HJ field in the chart of sign s, on lists: the chart oracle's field.

    (dH/dxi, -dH/du) for H = (D^2/8)|xi|^2 - (1/2)(M.xi)^2 with
    D = |u|^2 + 1 and M(u) = (D^2/4) J^T(iq): mr and gr are
    M - s u_n u and R^T xi + s (u.xi) e_n, with R u and R^T xi's zero
    e_n entries filled in.  Returns (dH/dxi, -dH/du, D).
    """
    n = len(u) // 2
    uu = _dot(u, u)
    uxi = _dot(u, xi)
    xx = _dot(xi, xi)
    su, sx = s * u[n], s * xi[n]
    mr = [-y for y in u[n + 1:]] + [-0.5 * s * (uu - 1.0)] + list(u[:n])
    gr = list(xi[n + 1:]) + [s * uxi] + [-y for y in xi[:n]]
    c = _dot(mr, xi) + su * uxi  # M.xi
    d = uu + 1.0
    r, e = 0.25 * d * d, 0.5 * d * xx
    return (
        [r * z - c * (m + su * x) for x, m, z in zip(u, mr, xi)],
        [c * (g + su * z - sx * x) - e * x for x, g, z in zip(u, gr, xi)],
        d,
    )


def hj_list_reference(init, t_max, step):
    """The HJ route in stereographic charts, with every stage built as a list.

    The route the ambient flow replaced, kept as its oracle.  It starts
    from an ambient CotangentState in the chart of `ChartReference.of`;
    each stage zips the state with the last stage's field into new
    lists and calls `hj_rhs_list_reference` on them, each row is
    recorded through ChartReference.from_coords and .push, and once the
    point climbs past HANDOFF_HEIGHT the state is handed to the other
    chart, an event.  No field, step or chart map comes from the library.
    """
    steps = G._step_schedule(t_max, step)
    chart, u, xi = ChartReference.of(init)
    u, xi = u.tolist(), xi.tolist()
    m = 2 * init.n + 2
    svals = np.empty(len(steps) + 1)
    points = np.empty((len(steps) + 1, m))
    vels = np.empty((len(steps) + 1, m))
    events = []
    k1u, k1x, _ = hj_rhs_list_reference(chart.sign, u, xi)
    svals[0] = 0.0
    points[0] = chart.from_coords(u)
    vels[0] = chart.push(u, k1u)
    t = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k2u, k2x, _ = hj_rhs_list_reference(
            chart.sign,
            [x + half * y for x, y in zip(u, k1u)],
            [x + half * y for x, y in zip(xi, k1x)],
        )
        k3u, k3x, _ = hj_rhs_list_reference(
            chart.sign,
            [x + half * y for x, y in zip(u, k2u)],
            [x + half * y for x, y in zip(xi, k2x)],
        )
        k4u, k4x, _ = hj_rhs_list_reference(
            chart.sign, [x + h * y for x, y in zip(u, k3u)], [x + h * y for x, y in zip(xi, k3x)]
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
        k1u, k1x, _ = hj_rhs_list_reference(chart.sign, u, xi)
        svals[i] = t
        points[i] = q
        vels[i] = chart.push(u, k1u)
        if chart.height(q) > HANDOFF_HEIGHT:
            new = ChartReference(init.n, -chart.sign)
            u, xi = hand_off_reference(chart, new, u, xi)
            events.append({"t": t, "from_sign": chart.sign, "to_sign": new.sign})
            chart = new
            k1u, k1x, _ = hj_rhs_list_reference(chart.sign, u, xi)
    return G.GeodesicTrace(svals, points, vels, np.full(len(steps) + 1, np.nan), events=events)


def ambient_rhs_list_reference(q, p):
    """The field of `G._hj_rhs` on lists: (dH/dp, -dH/dq) with iq and ip built as lists.

    The lines `G._hj_source` writes out must make these float operations
    in this order (a term - c * (-y) here is + c * y there).
    """
    iq, ip = _mul_i_reference(q), _mul_i_reference(p)
    qq, a, pp, c = _dot(q, q), _dot(q, p), _dot(p, p), _dot(iq, p)
    return (
        [qq * y - a * x - c * z for x, y, z in zip(q, p, iq)],
        [a * y - c * w - pp * x for x, y, w in zip(q, p, ip)],
    )


def ambient_list_reference(init, t_max, step):
    """The ambient HJ route with every stage built as a list.

    The list form of the generated straight-line kernel: each stage zips
    the state with the last stage's field into new lists and calls
    `ambient_rhs_list_reference` on them, and each row is q with the
    next step's first-stage dq.  No field or step comes from the library.
    """
    steps = G._step_schedule(t_max, step)
    q, p = init.x.tolist(), init.xi.tolist()
    svals = np.empty(len(steps) + 1)
    points = np.empty((len(steps) + 1, len(q)))
    vels = np.empty((len(steps) + 1, len(q)))
    k1q, k1p = ambient_rhs_list_reference(q, p)
    svals[0], points[0], vels[0] = 0.0, q, k1q
    t = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k2q, k2p = ambient_rhs_list_reference(
            [x + half * y for x, y in zip(q, k1q)], [x + half * y for x, y in zip(p, k1p)]
        )
        k3q, k3p = ambient_rhs_list_reference(
            [x + half * y for x, y in zip(q, k2q)], [x + half * y for x, y in zip(p, k2p)]
        )
        k4q, k4p = ambient_rhs_list_reference(
            [x + h * y for x, y in zip(q, k3q)], [x + h * y for x, y in zip(p, k3p)]
        )
        q = [x + sixth * (y1 + 2 * y2 + 2 * y3 + y4) for x, y1, y2, y3, y4 in zip(q, k1q, k2q, k3q, k4q)]
        p = [x + sixth * (y1 + 2 * y2 + 2 * y3 + y4) for x, y1, y2, y3, y4 in zip(p, k1p, k2p, k3p, k4p)]
        t += h
        k1q, k1p = ambient_rhs_list_reference(q, p)
        svals[i], points[i], vels[i] = t, q, k1q
    reeb = math.fsum(x * y for x, y in zip(_mul_i_reference(init.x.tolist()), init.xi.tolist()))
    return G.GeodesicTrace(svals, points, vels, np.full(len(steps) + 1, reeb))


def _bits(values):
    """The IEEE-754 bit patterns of floats, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


# pole-crossing starts at n = 1, 2, 3, on which the chart oracle hands off
# twice and the ambient route runs through both old poles
_HANDOFF_STARTS = tuple(
    ((*_pole_crossing_start(n), -0.6, length, step), 3.0)
    for n, length, step in ((1, 3.0, 2e-3), (2, 2.0055, 1e-2), (3, 3.0, 2e-3))
)


@settings(max_examples=40, deadline=None)
@given(_geodesic_starts(), st.sampled_from((0.0, 0.3, 3.0)))
@example(*_HANDOFF_STARTS[0])
@example(*_HANDOFF_STARTS[1])
@example(*_HANDOFF_STARTS[2])
@example(_HANDOFF_STARTS[0][0], 0.0)
@example(_HANDOFF_STARTS[1][0], 0.0)
@example(_HANDOFF_STARTS[2][0], 0.0)
def test_step_loops_are_their_list_forms_bit_for_bit(start, speed):
    p, v, b, length, step = start
    v = TangentVector(p, speed * v.vec, True)
    state = G.GeodesicState(p, v, b)
    lift = G.cotangent_lift(p, v, b)
    for got, want in (
        (G.integrate_connection_geodesic(state, length, step),
         connection_plane_list_reference(state, length, step)),
        (G.integrate_hj_geodesic(lift, length, step), ambient_list_reference(lift, length, step)),
    ):
        for name in ("s", "points", "velocities", "b"):
            # equal bit patterns: array_equal alone takes -0.0 for +0.0
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
        assert got.events == want.events == []


def test_pole_crossing_example_hands_off():
    # the explicit examples above cross the old charts' poles: the chart
    # oracle hands off on them several times
    for (p, v, b, length, step), speed in _HANDOFF_STARTS:
        lift = G.cotangent_lift(p, TangentVector(p, speed * v.vec, True), b)
        assert len(hj_list_reference(lift, length, step).events) > 1


# The HJ route's bounds against the chart oracle and the connection route
# at the geodesics suite's setting (t = 1, step 1e-3).  Over five starts
# (four random, one pole-crossing) for each b of the test below at
# n = 1, 2, 3, the largest gaps were 2.1e-12 in points and 1.2e-11 in
# velocities to the chart oracle, 4.7e-12 in points to the connection
# route, and 1.1e-14 in | |q| - 1 |.  Each bound keeps a margin of about 4x.
HJ_ROUTE_GAP = 5e-11
HJ_UNIT_DRIFT = 5e-14


def _random_start(rng, n):
    p = random_point(rng, n)
    return p, random_horizontal(rng, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hj_agrees_with_the_chart_oracle_and_the_connection_route(n, rng):
    # from random starts over the suite's b cycle and b = +-3, and from the
    # pole-crossing start at b = 0 and 0.4, on which the chart oracle hands off
    starts = [(*_random_start(rng, n), b, False) for b in (0.0, 1.0, -0.7, 0.4, 1.5, 3.0, -3.0)]
    starts += [(*_pole_crossing_start(n), b, True) for b in (0.0, 0.4)]
    for p, v, b, pole_crossing in starts:
        lift = G.cotangent_lift(p, v, b)
        got = G.integrate_hj_geodesic(lift, 1.0, 1e-3)
        assert got.events == []
        oracle = hj_list_reference(lift, 1.0, 1e-3)
        assert oracle.events or not pole_crossing
        conn = G.integrate_connection_geodesic(G.GeodesicState(p, v, b), 1.0, 1e-3)
        assert np.max(np.abs(got.points - oracle.points)) <= HJ_ROUTE_GAP, b
        assert np.max(np.abs(got.velocities - oracle.velocities)) <= HJ_ROUTE_GAP, b
        assert np.max(np.abs(got.points - conn.points)) <= HJ_ROUTE_GAP, b
        assert np.max(np.abs(np.linalg.norm(got.points, axis=1) - 1.0)) <= HJ_UNIT_DRIFT


def test_hj_step_loop_calls_the_field_once(monkeypatch):
    # the kernel's step loop writes out its four stages and the row
    # recording: the only name it looks up is enumerate, and the
    # one-point field runs once per integration, for row 0
    for n in (1, 2, 3):
        rhs, run = G._hj_kernel(n)
        assert run.__code__.co_names == ("enumerate",)
        assert rhs.__code__.co_names == ()
    calls = []
    kernel = G._hj_kernel

    def counting(n):
        rhs, run = kernel(n)

        def counted(*args):
            calls.append(1)
            return rhs(*args)

        return counted, run

    monkeypatch.setattr(G, "_hj_kernel", counting)
    for (p, v, b, length, step), speed in _HANDOFF_STARTS:
        calls.clear()
        G.integrate_hj_geodesic(G.cotangent_lift(p, TangentVector(p, speed * v.vec, True), b), length, step)
        assert len(calls) == 1


def test_hj_rhs_is_its_list_form_at_signed_zeros(monkeypatch):
    # the generated field against the list form, bit for bit, where
    # +0.0 and -0.0 meet: on S^3 every q and p with entries in `entries`
    # (the origin with each sign of zero among them), drawn ones at
    # n = 2, 3, and every state the list-form loop visits along the
    # pole-crossing starts
    def same(q, p):
        """Whether the list form gave a -0.0, after checking the field is it bit for bit."""
        got, want = G._hj_rhs(q, p), ambient_rhs_list_reference(q, p)
        for part, ref in zip(got, want):
            assert np.array_equal(_bits(part), _bits(ref)), (q, p)
        return any(x == 0.0 and math.copysign(1.0, x) < 0 for x in want[0] + want[1])

    entries = (0.0, -0.0, 0.25, -1.5)
    grid = [list(e) for e in np.array(np.meshgrid(*[entries] * 4)).reshape(4, -1).T]
    for q in grid:
        for p in grid[::3]:
            same(q, p)
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(300):
            q, p = rng.choice(entries, size=(2, 2 * n + 2)).tolist()
            same(q, p)
    states = []
    recorded = ambient_rhs_list_reference

    def recording(q, p):
        states.append((q, p))
        return recorded(q, p)

    monkeypatch.setitem(globals(), "ambient_rhs_list_reference", recording)
    for (p, v, b, length, step), speed in _HANDOFF_STARTS:
        for s in (speed, 0.0):
            ambient_list_reference(G.cotangent_lift(p, TangentVector(p, s * v.vec, True), b), length, step)
    monkeypatch.undo()
    assert sum(same(*state) for state in states) > 0  # the curves do reach -0.0


def test_hj_kernel_compiles_once_per_dimension(monkeypatch):
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return compile(source, *args)

    monkeypatch.setattr(G, "compile", counting, raising=False)
    G._hj_kernel.cache_clear()
    for n in (1, 2, 1, 2):
        p, v = _pole_crossing_start(n)
        G.integrate_hj_geodesic(G.cotangent_lift(p, v, 0.5), 2.005, 1e-2)
        G._hj_rhs([0.5] * (2 * n + 2), [1.0] * (2 * n + 2))
    assert len(compiled) == 2
    info = G._hj_kernel.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits > 0


def test_hj_kernel_refuses_a_bad_dimension():
    G._hj_kernel.cache_clear()
    for bad in (True, False, 1.0, 2.0, 0, -1):
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            G._hj_kernel(bad)
    assert G._hj_kernel.cache_info().currsize == 0
    # a numpy integer is a valid n, and a float equal to it still misses the cache
    q, p = [0.5, 0.0, -0.5, 0.5], [1.0, 2.0, 3.0, 4.0]
    assert G._hj_kernel(np.int64(1))[0](q, p) == G._hj_rhs(q, p)
    with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
        G._hj_kernel(1.0)


def test_import_compiles_no_hj_kernel():
    # the kernels are built on first use, so importing the library does no
    # work for them
    code = "import crsphere\nfrom crsphere import geodesics\nprint(geodesics._hj_kernel.cache_info().currsize)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


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
