"""Sub-Riemannian and adapted-connection geodesics on the spheres.

Two independent integrations of the same curves:

  * the ambient second-order ODE of the adapted connection,
        gamma'' = -|gamma'|^2 gamma + (2 theta(gamma') - 2 b) i pi_H gamma',
    run with a classical fixed-step fourth-order integrator, the
    position renormalized to the sphere each step.  The step runs on
    C^(n+1) in complex scalars: with the Hermitian product
    c = <gamma, gamma'>, pi_H gamma' = gamma' - c gamma and
    theta(gamma') = Im c, so
        gamma'' = -|gamma'|^2 gamma + 2i (Im c - b)(gamma' - c gamma);

  * the Hamilton-Jacobi system of H(x, xi) = (1/2) g^ij(x) xi_i xi_j in
    stereographic charts.  The cometric is the pushforward of the
    horizontal projector, g = (D^2/4) I - (D^4/16) m m^T with
    D = |u|^2 + 1 and m = J^T(iq), so H and both of its gradients have
    closed forms.  The flow steps on lists of floats and applies them
    through the scalar chart maps `Chart.from_coords`, `Chart.push`
    (J x) and `Chart.pull` (J^T w); it never builds g or J.
    `Chart.cometric`, `Chart.jacobian` and `hamiltonian` keep the
    matrix form as the oracle the tests compare against.

Both step loops are plain Python arithmetic on a few scalars: the
vectors have 4 to 8 entries, where a numpy call costs more than its
arithmetic.  numpy only holds the traces, written row by row into
preallocated arrays.

On the spheres the multiplier b is constant along a geodesic, and a
curve solves the connection equation with parameter b exactly when its
cotangent lift carries Reeb component b; the canonical lift is b = 1.
Unit-speed solutions also have the closed form

    gamma(t) = e^(i w1 t) c1 + e^(-i w2 t) c2,
    w1 = sqrt(1+b^2) - b,  w2 = sqrt(1+b^2) + b,

(complex scalar action on C^(n+1)), which stays on the sphere exactly
and is the oracle for the integrators.  Its endpoint is
alpha(b, t) x + beta(b, t) w for a unit direction w Hermitian-orthogonal
to x, so the distance estimate solves one complex equation,
alpha(b, t) = <x, y>, in which neither n nor w appears (`cc_distance`).
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .calculus import ScalarField, _rationalize
from .polynomials import Polynomial
from .sphere import ARG_TOL, SpherePoint, TangentVector, horizontal_frame, times_i

MAX_STEP = 1e-2


# ----------------------------------------------------------------------
# States and traces.
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeodesicState:
    """Initial data (position, horizontal velocity, multiplier b)."""

    x: SpherePoint
    v: TangentVector
    b: float = 0.0

    def __post_init__(self):
        if not self.v.horizontal:
            raise ValueError("geodesic initial velocity must be horizontal")


@dataclass(eq=False)
class GeodesicTrace:
    """Discretized curve with conservation diagnostics."""

    s: np.ndarray
    points: np.ndarray       # (N, 2n+2)
    velocities: np.ndarray   # (N, 2n+2)
    b: np.ndarray            # (N,)
    events: list = field(default_factory=list)

    @property
    def theta_vdot(self):
        return np.einsum("ij,ij->i", times_i(self.points), self.velocities)

    @property
    def speed(self):
        return np.linalg.norm(self.velocities, axis=1)

    @property
    def max_lengthiness_violation(self):
        return float(np.max(np.abs(self.theta_vdot)))

    @property
    def max_speed_drift(self):
        sp = self.speed
        return float(np.max(np.abs(sp - sp[0])))

    def endpoint(self):
        return self.points[-1]

    def to_csv(self, path):
        """One row per sample: s, x..., v..., b, theta_vdot, speed."""
        m = self.points.shape[1]
        header = (
            ["s"]
            + ["x%d" % (k + 1) for k in range(m)]
            + ["v%d" % (k + 1) for k in range(m)]
            + ["b", "theta_vdot", "speed"]
        )
        theta = self.theta_vdot
        speed = self.speed
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.s)):
                row = (
                    [repr(float(self.s[i]))]
                    + [repr(float(x)) for x in self.points[i]]
                    + [repr(float(v)) for v in self.velocities[i]]
                    + [repr(float(self.b[i])), repr(float(theta[i])), repr(float(speed[i]))]
                )
                writer.writerow(row)


# ----------------------------------------------------------------------
# Connection geodesics.
# ----------------------------------------------------------------------


def great_circle(x0, v, s):
    """x0 cos s + v sin s: the b = 0 geodesic in closed form."""
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    if abs(np.linalg.norm(vec) - 1.0) > ARG_TOL:
        raise ValueError("great_circle expects a unit direction")
    q = x0.coords
    t = times_i(q)
    if abs(float(q @ vec)) > ARG_TOL or abs(float(t @ vec)) > ARG_TOL:
        raise ValueError("great_circle expects a horizontal direction")
    out = q * np.cos(s) + vec * np.sin(s)
    return SpherePoint(out / np.linalg.norm(out), x0.n)


def great_circle_points(x0, v, s):
    """great_circle at every entry of s, as the rows of one array.

    The direction is validated once, with great_circle's guards (written
    so that a NaN residual fails them too); each row is normalised.
    great_circle keeps its own body: the tests compare the two.
    """
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(vec) - 1.0) <= ARG_TOL:
        raise ValueError("great_circle expects a unit direction")
    q = x0.coords
    if not (abs(float(q @ vec)) <= ARG_TOL and abs(float(times_i(q) @ vec)) <= ARG_TOL):
        raise ValueError("great_circle expects a horizontal direction")
    s = np.asarray(s, dtype=float)[:, None]
    out = q * np.cos(s) + vec * np.sin(s)
    return out / np.linalg.norm(out, axis=1)[:, None]


def _connection_rhs(q, v, b):
    """(gamma', gamma'') at (q, v), lists of complex scalars in C^(n+1).

    c = <q, v> = sum conj(q_j) v_j gives pi_H v = v - c q and
    theta(v) = Im c.
    """
    c = sum(map(mul, map(complex.conjugate, q), v))
    vv = sum([w.real * w.real + w.imag * w.imag for w in v])
    k = 2j * (c.imag - b)
    return v, [k * (w - c * z) - vv * z for z, w in zip(q, v)]


def integrate_connection_geodesic(init, s_max, step):
    """Fixed-step RK4 for the connection geodesic ODE.

    The state is stepped in C^(n+1) (see `_connection_rhs`).  The
    position is renormalized to the sphere after every step (the
    correction is far below the integrator error).  The multiplier
    evolves by b' = A(gamma', gamma'), and the spheres have no
    pseudohermitian torsion A, so b stays constant along the flow.
    """
    steps = _step_schedule(s_max, step)
    q = _complex(init.x.coords).tolist()
    v = _complex(init.v.vec).tolist()
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
        k1q, k1v = _connection_rhs(q, v, b)
        k2q, k2v = _connection_rhs(
            [z + half * d for z, d in zip(q, k1q)], [w + half * d for w, d in zip(v, k1v)], b
        )
        k3q, k3v = _connection_rhs(
            [z + half * d for z, d in zip(q, k2q)], [w + half * d for w, d in zip(v, k2v)], b
        )
        k4q, k4v = _connection_rhs(
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
    return GeodesicTrace(svals, _real(zq), _real(zv), np.full(len(steps) + 1, b))


def _step_schedule(s_max, step):
    """Fixed steps, with one shorter final step landing exactly on s_max."""
    if step <= 0:
        raise ValueError("step must be positive")
    if step > MAX_STEP:
        raise ValueError("step must be <= %g" % MAX_STEP)
    if s_max <= 0:
        raise ValueError("the integration length must be positive")
    nfull = int(s_max / step)
    rem = s_max - nfull * step
    steps = [step] * nfull
    if rem > 1e-12:
        steps.append(rem)
    return steps


def closed_form_geodesic(x0, v, b, s):
    """Unit-speed connection geodesic in closed form.

    Returns (points, velocities) sampled at the parameter values s;
    exact up to floating point, stays on the sphere identically.
    """
    q = x0.coords if isinstance(x0, SpherePoint) else np.asarray(x0, dtype=float)
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    root = math.sqrt(1.0 + b * b)
    w1, w2 = root - b, root + b
    z0, w = _complex(q), _complex(vec)
    c1 = (w2 * z0 - 1j * w) / (w1 + w2)
    c2 = (w1 * z0 + 1j * w) / (w1 + w2)
    e1 = np.exp(1j * w1 * s)[:, None]
    e2 = np.exp(-1j * w2 * s)[:, None]
    z = e1 * c1[None, :] + e2 * c2[None, :]
    dz = 1j * w1 * e1 * c1[None, :] - 1j * w2 * e2 * c2[None, :]
    return _real(z), _real(dz)


def exp_map(x0, w):
    """Exponential of the adapted connection on a horizontal vector.

    gamma(|w|) along the b = 0 geodesic with direction w/|w|; the curve
    is lengthy, so the distance estimate can never exceed |w|.
    """
    vec = w.vec if isinstance(w, TangentVector) else np.asarray(w, dtype=float)
    r = float(np.linalg.norm(vec))
    if r == 0.0:
        return x0
    return great_circle(x0, vec / r, r)


# ----------------------------------------------------------------------
# Stereographic charts and the Hamilton-Jacobi system.
# ----------------------------------------------------------------------


class Chart:
    """Stereographic chart from one of the two poles +-e_(2n+2)."""

    # Handoff once the point climbs past this height toward the pole;
    # the other chart then sees it well inside its own domain.
    HANDOFF_HEIGHT = 0.55

    def __init__(self, n, sign):
        self.n = n
        self.sign = 1 if sign >= 0 else -1
        self.m = 2 * n + 2

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

    # The chart maps below take any sequence of floats and return a
    # list: the HJ flow calls them on every RK4 stage with 3 to 7
    # entries, where scalar arithmetic beats numpy's per-call cost.

    def from_coords(self, u):
        d = sum(map(mul, u, u)) + 1.0
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
        d = sum(map(mul, u, u)) + 1.0
        r = 2.0 / d
        k = 4.0 * sum(map(mul, u, x)) / (d * d)
        out = [r * z - k * y for y, z in zip(u, x)]
        out.append(self.sign * k)
        return out

    def pull(self, u, w):
        """J^T w without building J: (2/D) w' + (4/D^2) u (s w_last - u.w')."""
        d = sum(map(mul, u, u)) + 1.0
        r = 2.0 / d
        k = 4.0 * (self.sign * w[-1] - sum(map(mul, u, w))) / (d * d)
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


@dataclass(eq=False)
class CotangentState:
    """Chart position, covector, and the chart carrying them."""

    x: np.ndarray
    xi: np.ndarray
    chart: int
    n: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.x.shape != (2 * self.n + 1,) or self.xi.shape != self.x.shape:
            raise ValueError("chart state of the wrong dimension")


def _charts(n):
    return (Chart(n, +1), Chart(n, -1))


def cotangent_lift(p, v, reeb_component=1.0):
    """Covector with xi(X) = g(v, X) on H and xi(T) = reeb_component.

    The ambient representative is v + reeb_component * i p; pairing it
    with the chart Jacobian, J^T m, gives the chart covector.
    """
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    q = p.coords
    m_amb = vec + float(reeb_component) * times_i(q)
    charts = _charts(p.n)
    cid = 0 if charts[0].height(q) <= 0.0 else 1
    chart = charts[cid]
    u = chart.to_coords(q)
    return CotangentState(u, chart.pull(u, m_amb), cid, p.n)


def hamiltonian(state):
    chart = _charts(state.n)[state.chart]
    g = chart.cometric(state.x)
    return 0.5 * float(state.xi @ g @ state.xi)


def _mul_i(v):
    """i v for a list v of floats laid out as (x, y): the list (-y, x)."""
    half = len(v) // 2
    return [-x for x in v[half:]] + v[:half]


def _cometric_apply(chart, u, xi):
    """g(u) xi = (D^2/4) xi - (D^4/16) c m without building g.

    m = J^T(iq) and c = m.xi; returns g xi with D, iq and c, on lists.
    """
    d = sum(map(mul, u, u)) + 1.0
    w = _mul_i(chart.from_coords(u))
    m = chart.pull(u, w)
    c = sum(map(mul, m, xi))
    r, k = 0.25 * d * d, d**4 / 16.0 * c
    return [r * x - k * y for x, y in zip(xi, m)], d, w, c


def _hj_rhs(chart, u, xi):
    """(dH/dxi, -dH/du) for H = (1/2)[(D^2/4)|xi|^2 - (D^4/16) c^2].

    With dD/du = 2u, dH/du = (1/2)[D|xi|^2 u - (1/2) D^3 c^2 u
    - (D^4/8) c grad c].  Since c = (J xi).(iq), its gradient is
    Hess_u(q.w)|_(w = iq) xi - J^T(i J xi), where q.w = s w_last
    + 2a/D with a = u.w' - s w_last for a fixed w.  u and xi are
    sequences of floats; both parts come back as lists.
    """
    du, d, w, c = _cometric_apply(chart, u, xi)
    a = sum(map(mul, u, w)) - chart.sign * w[-1]
    uxi = sum(map(mul, u, xi))
    wxi = sum(map(mul, w, xi))
    r, k = -4.0 / (d * d), 16.0 * a * uxi / d**3
    pulled = chart.pull(u, _mul_i(chart.push(u, xi)))
    e = d * sum(map(mul, xi, xi)) - 0.5 * d**3 * c * c
    f = d**4 / 8.0 * c
    # grad c = Hess xi - pulled, Hess xi = r (uxi w' + (w'.xi) u + a xi) + k u
    return du, [
        -0.5 * (e * y - f * ((r * (uxi * x + wxi * y + a * z) + k * y) - p))
        for x, y, z, p in zip(w, u, xi, pulled)
    ]


def _hand_off(old, new, u, xi):
    """Carry a chart state (u, xi) from chart `old` to chart `new`.

    J^T J = (4/D^2) I, so the ambient covector J (J^T J)^-1 xi is
    J (D^2/4) xi, which the new chart pulls back.
    """
    d = sum(map(mul, u, u)) + 1.0
    r = 0.25 * d * d
    m_amb = old.push(u, [r * x for x in xi])
    u_new = new.to_coords(old.from_coords(u))
    return u_new, new.pull(u_new, m_amb)


def integrate_hj_geodesic(init, t_max, step):
    """Fixed-step RK4 for the Hamilton-Jacobi system in charts.

    The state (u, xi) is stepped on lists of floats.  The Hamiltonian
    field is the closed form of `_hj_rhs`, applied through the scalar
    Jacobian products `Chart.push` and `Chart.pull`; the recorded
    velocity is J dH/dxi, taken from the next step's first stage.
    Chart exits are events: when the curve climbs toward the active
    pole the state is handed to the antipodal chart and integration
    continues.
    """
    steps = _step_schedule(t_max, step)
    charts = _charts(init.n)
    cid = init.chart
    chart = charts[cid]
    u = init.x.tolist()
    xi = init.xi.tolist()
    m = 2 * init.n + 2
    svals = np.empty(len(steps) + 1)
    points = np.empty((len(steps) + 1, m))
    vels = np.empty((len(steps) + 1, m))
    events = []
    k1u, k1x = _hj_rhs(chart, u, xi)
    svals[0] = 0.0
    points[0] = chart.from_coords(u)
    vels[0] = chart.push(u, k1u)
    t = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        k2u, k2x = _hj_rhs(
            chart, [x + half * y for x, y in zip(u, k1u)], [x + half * y for x, y in zip(xi, k1x)]
        )
        k3u, k3x = _hj_rhs(
            chart, [x + half * y for x, y in zip(u, k2u)], [x + half * y for x, y in zip(xi, k2x)]
        )
        k4u, k4x = _hj_rhs(
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
        k1u, k1x = _hj_rhs(chart, u, xi)
        svals[i] = t
        points[i] = q
        vels[i] = chart.push(u, k1u)
        if chart.height(q) > Chart.HANDOFF_HEIGHT:
            new_cid = 1 - cid
            u, xi = _hand_off(chart, charts[new_cid], u, xi)
            events.append({"t": t, "from_chart": cid, "to_chart": new_cid})
            cid = new_cid
            chart = charts[cid]
            k1u, k1x = _hj_rhs(chart, u, xi)
    trace = GeodesicTrace(
        svals, points, vels, np.full(len(steps) + 1, np.nan), events=events
    )
    return trace


# ----------------------------------------------------------------------
# Carnot-Caratheodory distance by shooting.
# ----------------------------------------------------------------------


def riemannian_distance(x, y):
    qx = x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)
    qy = y.coords if isinstance(y, SpherePoint) else np.asarray(y, dtype=float)
    return float(np.arccos(np.clip(qx @ qy, -1.0, 1.0)))


SCAN_T0 = 1e-4  # first length of the scan grid
FIBRE_TOL = 1e-12  # |y - <x, y> x| at or below which y is on the Reeb fibre of x


@dataclass(frozen=True)
class ShootingBudget:
    """Search box and solver budget for the distance estimator.

    The scan evaluates |alpha(b, t) - <x, y>| at num_b values of b,
    evenly spaced in [-b_span, b_span], times coarse_samples values of
    t, evenly spaced in [SCAN_T0, t_max].  Each local minimum of the
    scan is refined by a damped Newton solve capped at refine_maxiter
    evaluations of alpha; a refined solution hits y when the endpoint
    gap of its closed-form geodesic is at most endpoint_tol.
    """

    num_b: int = 13
    b_span: float = 3.0
    t_max: float = 4.2
    coarse_samples: int = 1400
    refine_maxiter: int = 600
    endpoint_tol: float = 1e-5

    def __post_init__(self):
        for name in ("num_b", "coarse_samples", "refine_maxiter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))
        # each guard is written `not (...)`, so that NaN fails it
        if not (0.0 <= self.b_span < math.inf):
            raise ValueError("b_span must be finite and >= 0, got %r" % self.b_span)
        if not (SCAN_T0 < self.t_max < math.inf):
            raise ValueError("t_max must be finite and > %g, got %r" % (SCAN_T0, self.t_max))
        if not (0.0 < self.endpoint_tol < math.inf):
            raise ValueError("endpoint_tol must be finite and > 0, got %r" % self.endpoint_tol)


@dataclass(eq=False)
class CCDistanceResult:
    """A distance estimate with its certificate trace and solver counters.

    evaluations counts the evaluations of alpha (with its partials) made
    by the Newton refinements, and misses the refined scan minima whose
    endpoint gap stayed above endpoint_tol.  Both are 0 when y is x or
    lies on the Reeb fibre of x, which have closed forms.
    """

    estimate: float
    converged: bool
    endpoint_gap: float
    direction: np.ndarray
    b: float
    trace: GeodesicTrace
    evaluations: int = 0
    misses: int = 0


def _complex(vec):
    """(x, y) in R^(2n+2) as x + iy in C^(n+1)."""
    half = vec.size // 2
    return vec[:half] + 1j * vec[half:]


def _real(z):
    """Rows x + iy of C^(n+1) as rows (x, y) of R^(2n+2); inverse of `_complex`."""
    return np.concatenate([z.real, z.imag], axis=-1)


def _alpha(b, t):
    """alpha(b, t) = <x, z(t)> along the closed form, with beta and the partials.

    Regrouping e^(i w1 t) c1 + e^(-i w2 t) c2 (w1, w2 = r -+ b,
    r = sqrt(1+b^2)) around e^(-ibt), the unit-speed geodesic from x with
    unit direction w Hermitian-orthogonal to x ends at z = alpha x + beta w,
        alpha = e^(-ibt) (cos rt + i (b/r) sin rt),  beta = e^(-ibt) sin(rt)/r,
    so |alpha|^2 + |beta|^2 = 1 and
        alpha_t = -beta,  alpha_b = i e^(-ibt) (sin(rt)/r - t cos rt)/r^2.
    Returns (alpha, beta, alpha_b, alpha_t), complex scalars; b and t
    are floats.  alpha(b, -t) = alpha(-b, t), so a root at t < 0 is the
    root (-b, -t) of the same curve length.
    """
    root = math.sqrt(1.0 + b * b)
    phase = cmath.exp(-1j * b * t)
    cos, sin = math.cos(root * t), math.sin(root * t) / root
    beta = phase * sin
    return phase * complex(cos, b * sin), beta, 1j * phase * (sin - t * cos) / (root * root), -beta


@functools.lru_cache(maxsize=8)
def _alpha_grid(budget):
    """alpha on the (b, t) grid of a budget: (b values, t values, alpha).

    alpha depends on neither x nor y, so one grid serves every call
    with the same budget; the arrays are read-only.
    """
    bvals = np.linspace(-budget.b_span, budget.b_span, budget.num_b)
    ts = np.linspace(SCAN_T0, budget.t_max, budget.coarse_samples)
    b = bvals[:, None]
    root = np.sqrt(1.0 + b * b)
    alpha = np.exp(-1j * b * ts) * (np.cos(root * ts) + 1j * (b / root) * np.sin(root * ts))
    for arr in (bvals, ts, alpha):
        arr.flags.writeable = False
    return bvals, ts, alpha


def _scan(a, budget):
    """Local minima of |alpha - a| on the (b, t) grid, as (b, t) in increasing t.

    A grid point is a local minimum when no point of its 3 x 3
    neighbourhood is lower.
    """
    bvals, ts, alpha = _alpha_grid(budget)
    gap = np.abs(alpha - a)
    pad = np.pad(gap, 1, constant_values=np.inf)
    low = np.minimum(np.minimum(pad[:, :-2], pad[:, 1:-1]), pad[:, 2:])
    low = np.minimum(np.minimum(low[:-2], low[1:-1]), low[2:])
    rows, cols = np.nonzero(gap <= low)
    return [(float(bvals[i]), float(ts[j])) for j, i in sorted(zip(cols, rows))]


def _newton(a, b, t, maxiter):
    """Damped Newton on the 2 x 2 real system alpha(b, t) = a.

    Each iteration tries the Newton step and up to nine halvings of it,
    and takes the first that cuts |alpha - a| by at least a tenth.  The
    solve stops when none does (at a root, once rounding dominates, or
    in the basin of a minimum that is not a root) or after maxiter
    evaluations of alpha.  Returns (b, t, evaluations) with t >= 0.
    """
    alpha, _, alpha_b, alpha_t = _alpha(b, t)
    res = alpha - a
    evaluations = 1
    progress = True
    while progress and evaluations < maxiter:
        det = (alpha_b.conjugate() * alpha_t).imag
        if det == 0.0:
            break
        db = (res.imag * alpha_t.real - res.real * alpha_t.imag) / det
        dt = (res.real * alpha_b.imag - res.imag * alpha_b.real) / det
        progress = False
        for k in range(min(10, maxiter - evaluations)):
            step = 0.5**k
            trial = _alpha(b + step * db, t + step * dt)
            evaluations += 1
            if abs(trial[0] - a) < 0.9 * abs(res):
                b, t = b + step * db, t + step * dt
                res, alpha_b, alpha_t = trial[0] - a, trial[2], trial[3]
                progress = True
                break
    if t < 0.0:
        b, t = -b, -t
    return b, t, evaluations


def _fibre_solution(phi):
    """(b, t) of the shortest geodesics from x to e^(i phi) x, 0 <= phi < 2 pi.

    beta = 0 needs sin(rt) = 0 (see `_alpha`), first at rt = pi, where
    alpha = -e^(-ibt) = e^(i(pi - bt)).  So bt = pi - phi and
    t^2 = (pi/r)^2 = pi^2 - (bt)^2 = phi (2 pi - phi); every horizontal
    direction reaches the point.
    """
    t = math.sqrt(phi * (2.0 * math.pi - phi))
    return ((math.pi - phi) / t if t else 0.0), t


def cc_distance(x, y, budget=None):
    """Upper bound on the Carnot-Caratheodory distance from one complex equation.

    The unit-speed geodesic from x with multiplier b and unit direction
    w Hermitian-orthogonal to x ends at alpha(b, t) x + beta(b, t) w
    (see `_alpha`), so it reaches y exactly when alpha(b, t) = <x, y> =: a,
    and then w = (y - a x)/beta is forced.  Neither n nor the direction
    enters the equation: every geodesic from x to y lies in
    span_C(x, y).  The equation is scanned on the (b, t) box of the
    budget, its local minima are refined by damped Newton in increasing
    scan length, and the search stops once the next minimum starts more
    than two grid steps beyond the shortest hit.  The estimate is that
    shortest length, certified by the endpoint gap of
    `closed_form_geodesic` along the forced w.  A target on the Reeb
    fibre of x (y = e^(i phi) x, where beta = 0 and the Jacobian of alpha
    is singular) has the closed-form solution of `_fibre_solution`.  A
    certificate trace of the winning curve is returned; when nothing
    hits the closest refined curve is returned, flagged.
    """
    budget = budget or ShootingBudget()
    if isinstance(y, SpherePoint):
        if y.n != x.n:
            raise ValueError("target point lies on S^%d, not S^%d" % (2 * y.n + 1, 2 * x.n + 1))
    else:
        y = SpherePoint(y, x.n)
    qx, qy = x.coords, y.coords
    if np.array_equal(qx, qy):
        trace = GeodesicTrace(
            np.zeros(1), qx[None, :].copy(), np.zeros((1, qx.size)), np.zeros(1)
        )
        return CCDistanceResult(0.0, True, 0.0, np.zeros(qx.size), 0.0, trace)

    zx, zy = _complex(qx), _complex(qy)
    a = complex(np.vdot(zx, zy))
    u = zy - a * zx
    unorm = float(np.linalg.norm(u))

    def shot(b, t, v=None):
        """(t, endpoint gap, direction, b) of one curve; v defaults to the forced w.

        The forced w is (y - a x)/beta scaled to unit length: the two agree
        at a root, and off one the unit length keeps the gap honest.
        """
        if v is None:
            beta = _alpha(b, t)[1]
            v = _real(u * (abs(beta) / beta) / unorm)
        end, _ = closed_form_geodesic(x, v, b, t)
        return t, float(np.linalg.norm(end[0] - qy)), v, b

    evaluations = 0
    misses = []
    best = None
    if unorm <= FIBRE_TOL:
        b, t = _fibre_solution(cmath.phase(a) % (2.0 * math.pi))
        best = shot(b, t, horizontal_frame(x).matrix()[0])
    else:
        dt = (budget.t_max - SCAN_T0) / max(budget.coarse_samples - 1, 1)
        for b0, t0 in _scan(a, budget):
            if best is not None and t0 > best[0] + 2.0 * dt:
                break
            b, t, used = _newton(a, b0, t0, budget.refine_maxiter)
            evaluations += used
            entry = shot(b, t)
            if entry[1] > budget.endpoint_tol:
                misses.append(entry)
            elif best is None or entry[0] < best[0]:
                best = entry
        if best is None:
            best = min(misses, key=lambda e: e[1])
    t, gap, v, b = best
    samples = np.linspace(0.0, t, 256)
    pts, vels = closed_form_geodesic(x, v, b, samples)
    trace = GeodesicTrace(samples, pts, vels, np.full(samples.size, b))
    return CCDistanceResult(
        estimate=float(t),
        converged=gap <= budget.endpoint_tol,
        endpoint_gap=gap,
        direction=v,
        b=b,
        trace=trace,
        evaluations=evaluations,
        misses=len(misses),
    )


# ----------------------------------------------------------------------
# Eigenfunction profile along a geodesic, and the reach set at pi/2.
# ----------------------------------------------------------------------


FIT_MAXITER = 50


def eigen_along_geodesic(f, trace):
    """Least-squares fit of A cos(w s) to f along a trace.

    The trace must start at a maximum point of f; returns (amplitude,
    frequency, max fit residual).  The fit is separable: for fixed w the
    best amplitude is linear, A(w) = (v.c)/(c.c) with c = cos(w s), so
    `_cosine_fit` runs Gauss-Newton on w alone over the reduced residual
    v - A(w) c (variable projection; Golub and Pereyra, SIAM J. Numer.
    Anal. 10, 1973).  Each run stops once a step is at most 4 eps |w| or
    no smaller than the step before it (the rounding floor); a run whose
    w turns non-finite, whose Jacobian vanishes, or that takes
    FIT_MAXITER steps is dropped.  The frequency is seeded from the first
    near-minimal sample (a periodic trace repeats its minimum, so a bare
    argmin may land on a later copy and mislead the iteration); a few
    harmonically related seeds are tried and the fit with the smallest
    max residual is kept.  A non-finite profile value, a constant
    profile, or a drop from every seed raises ValueError.
    """
    vals = np.array([f.poly.evaluate(pt) for pt in trace.points])
    if not np.all(np.isfinite(vals)):
        raise ValueError("the profile along the trace has non-finite values")
    spread = float(np.ptp(vals))
    if spread < 1e-12:
        raise ValueError("field is constant along the trace; nothing to fit")
    s = np.asarray(trace.s, dtype=float)
    near_min = np.nonzero(vals <= np.min(vals) + 1e-9 * spread)[0]
    s_min = s[int(near_min[0])]
    w0 = np.pi / s_min if s_min > 0 else 1.0

    best = None
    for seed in (w0, 2.0 * w0, 0.5 * w0):
        fit = _cosine_fit(s, vals, seed)
        if fit is None:
            continue
        amp, w = fit
        residual = float(np.max(np.abs(amp * np.cos(w * s) - vals)))
        if best is None or residual < best[2]:
            best = (amp, abs(w), residual)
    if best is None:
        raise ValueError("cosine fit did not converge from any seed")
    return best


def _projected_cosine(s, vals, w):
    """The variable projection of vals onto cos(w s): (A, r, J).

    With c = cos(w s) and d = dc/dw = -s sin(w s), the best amplitude is
    A = (v.c)/(c.c), its derivative A' = (v.d - 2A c.d)/(c.c), the
    reduced residual r = v - A c, and its Jacobian J = dr/dw = -(A' c + A d).
    """
    ws = w * s
    c = np.cos(ws)
    d = -s * np.sin(ws)
    cc = float(c @ c)
    amp = float(vals @ c) / cc
    damp = (float(vals @ d) - 2.0 * amp * float(c @ d)) / cc
    return amp, vals - amp * c, -(damp * c + amp * d)


def _cosine_fit(s, vals, w):
    """Gauss-Newton on the reduced residual of vals ~ A cos(w s), from the seed w.

    Each step is w -= (J.r)/(J.J) (`_projected_cosine`).  The iteration
    stops when |dw| <= 4 eps |w|, or when a step is no smaller than the
    one before it (the rounding floor; that step is not taken).  Returns
    (A, w) as floats, or None when w turns non-finite, J.J is 0, or
    FIT_MAXITER steps do not settle it.
    """
    w = float(w)
    last = math.inf
    for _ in range(FIT_MAXITER):
        amp, r, jac = _projected_cosine(s, vals, w)
        jj = float(jac @ jac)
        if not jj > 0.0:
            return None
        step = -float(jac @ r) / jj
        if not math.isfinite(w + step):
            return None
        if abs(step) >= last:
            return amp, w
        w += step
        if abs(step) <= 4.0 * np.finfo(float).eps * abs(w):
            return _projected_cosine(s, vals, w)[0], w
        last = abs(step)
    return None


def _alpha_parts(a, b):
    """alpha = sqrt(a^2 + b^2) with alpha - a and alpha + a.

    Whichever of the two cancels (alpha - a for a > 0, alpha + a for
    a < 0) is computed from their product b^2 instead, so both keep full
    relative precision however small |b| is.
    """
    alpha = float(np.hypot(a, b))
    if a > 0:
        plus = alpha + a
        return alpha, b * b / plus, plus
    minus = alpha - a
    return alpha, minus, b * b / minus


def s3_max_point(a, b, psi=0.0):
    """A maximum point of f = a(x1^2+y1^2-x2^2-y2^2) + 2b(x1 x2 + y1 y2).

    The maximum value is alpha = sqrt(a^2 + b^2); the maximum set is the
    unit circle of the plane x2 = A x1, y2 = A y1 with A = (alpha - a)/b,
    so the radius in the (x1, y1) trace variables is
    sqrt((alpha + a)/(2 alpha)).  psi selects the point on that circle.
    """
    if b == 0:
        raise ValueError("the profile requires b != 0")
    alpha, minus, plus = _alpha_parts(a, b)
    big_a = minus / b
    r = np.sqrt(plus / (2.0 * alpha))
    xi = r * np.cos(psi)
    eta = r * np.sin(psi)
    coords = np.array([xi, big_a * xi, eta, big_a * eta])
    return SpherePoint(coords / np.linalg.norm(coords), 1)


def s3_profile_field(a, b):
    """The degree-2 Reeb-kernel eigenfunction on S^3 whose maximum s3_max_point finds.

    f = a(x1^2+y1^2-x2^2-y2^2) + 2b(x1 x2 + y1 y2), with a float a or b
    taken as its exact binary fraction.
    """
    terms = {
        (2, 0, 0, 0): a, (0, 0, 2, 0): a, (0, 2, 0, 0): -a, (0, 0, 0, 2): -a,
        (1, 1, 0, 0): 2 * b, (0, 0, 1, 1): 2 * b,
    }
    return ScalarField(Polynomial(4, {k: _rationalize(v) for k, v in terms.items() if v}), 1)


@dataclass(eq=False)
class ReachSample:
    point: SpherePoint
    set_residual: float
    resolved_order: str  # which reading of the target tuple matched
    f_value: float
    grad_norm: float
    hess_tt: float


def _set_residual(pt, a, b):
    """Distance of a point from the parametrized target set, both readings.

    Interleaved reading: tuple slots are (x1, y1, x2, y2); literal
    reading: slots follow the storage layout (x1, x2, y1, y2).

    A plane residual |w + c u| is divided by max(1, |c|).  That keeps it
    at least the Euclidean distance |w + c u| / sqrt(1 + c^2) to the
    plane, leaves it as it is for |c| <= 1, and stops a large c (a > 0,
    b -> 0) from scaling the rounding of u past the tolerance.
    """
    alpha, minus, _ = _alpha_parts(a, b)
    c = b / minus
    scale = max(1.0, abs(c))
    radius_sq = minus / (2.0 * alpha)
    x1, x2, y1, y2 = pt
    interleaved = max(
        abs(x2 + c * x1) / scale, abs(y2 + c * y1) / scale,
        abs(x1 * x1 + y1 * y1 - radius_sq),
    )
    literal = max(
        abs(y1 + c * x1) / scale, abs(y2 + c * x2) / scale,
        abs(x1 * x1 + x2 * x2 - radius_sq),
    )
    if interleaved <= literal:
        return interleaved, "interleaved"
    return literal, "literal"


def reach_set_half_pi(a, b, num_samples=64, psi=0.0):
    """Sample the set of points reached at parameter pi/2.

    Follows unit-speed lengthy geodesics from a maximum point of the
    degree-2 profile; every reached point must lie on the parametrized
    target circle, sit at the minimum value -alpha, and be a degenerate
    critical point.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    x0 = s3_max_point(a, b, psi)
    frame = horizontal_frame(x0)
    mat = frame.matrix()
    f = s3_profile_field(a, b)
    samples = []
    phis = np.linspace(0.0, 2 * np.pi, num_samples, endpoint=False)
    for phi in phis:
        v = np.cos(phi) * mat[0] + np.sin(phi) * mat[1]
        pt = great_circle(x0, v, np.pi / 2.0)
        resid, order = _set_residual(pt.coords, a, b)
        grad = np.array([g.evaluate(pt.coords) for g in f.grad_polys])
        grad_t = grad - float(grad @ pt.coords) * pt.coords
        samples.append(
            ReachSample(
                point=pt,
                set_residual=resid,
                resolved_order=order,
                f_value=f.value(pt),
                grad_norm=float(np.linalg.norm(grad_t)),
                hess_tt=f.t0t0_poly.evaluate(pt.coords),
            )
        )
    return samples
