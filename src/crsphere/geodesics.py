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
and is used as the shooting engine for distance estimates and as an
oracle for the integrators.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from scipy import optimize

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


def _geodesic_coefficients(z0, w, b):
    """Frequencies and amplitudes of z(s) = e^(i w1 s) c1 + e^(-i w2 s) c2.

    z0 and w are the start point and unit direction in C^(n+1); w may
    carry leading axes, and b broadcasts against them.  Returns
    (w1, w2, c1, c2) with w1 = r - b, w2 = r + b, r = sqrt(1 + b^2).
    """
    b = np.asarray(b, dtype=float)
    root = np.sqrt(1.0 + b * b)
    w1, w2 = root - b, root + b
    total = (w1 + w2)[..., None]
    c1 = (w2[..., None] * z0 - 1j * w) / total
    c2 = (w1[..., None] * z0 + 1j * w) / total
    return w1, w2, c1, c2


def closed_form_geodesic(x0, v, b, s):
    """Unit-speed connection geodesic in closed form.

    Returns (points, velocities) sampled at the parameter values s;
    exact up to floating point, stays on the sphere identically.
    """
    q = x0.coords if isinstance(x0, SpherePoint) else np.asarray(x0, dtype=float)
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    w1, w2, c1, c2 = _geodesic_coefficients(_complex(q), _complex(vec), b)
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


@dataclass(frozen=True)
class ShootingBudget:
    """Grid x refinement budget for the distance estimator.

    The coarse scan follows num_directions x num_b closed-form geodesics
    (b evenly spaced in [-b_span, b_span]) at coarse_samples parameter
    values in (0, t_max].  The refine_candidates closest approaches, plus
    up to four short near misses, are each refined by one
    Levenberg-Marquardt solve capped at refine_maxiter residual
    evaluations; a refined curve hits y when its endpoint gap is at most
    endpoint_tol.  seed draws the directions when n > 1.
    """

    num_directions: int = 24
    num_b: int = 13
    b_span: float = 3.0
    t_max: float = 4.2
    coarse_samples: int = 1400
    refine_candidates: int = 6
    refine_maxiter: int = 600
    endpoint_tol: float = 1e-5
    seed: int = 0


@dataclass(eq=False)
class CCDistanceResult:
    """A distance estimate with its certificate trace and solver counters.

    evaluations counts the residual evaluations of every refinement and
    misses the refined candidates whose gap stayed above endpoint_tol.
    """

    estimate: float
    converged: bool
    endpoint_gap: float
    direction: np.ndarray
    b: float
    trace: GeodesicTrace
    evaluations: int = 0
    misses: int = 0


def _direction_grid(p, budget):
    frame = horizontal_frame(p)
    mat = frame.matrix()
    k = mat.shape[0]
    if k == 2:
        phis = np.linspace(0.0, 2 * np.pi, budget.num_directions, endpoint=False)
        return np.cos(phis)[:, None] * mat[0] + np.sin(phis)[:, None] * mat[1]
    rng = np.random.default_rng(budget.seed)
    coeffs = rng.standard_normal((budget.num_directions, k))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    return coeffs @ mat


def _complex(vec):
    """(x, y) in R^(2n+2) as x + iy in C^(n+1)."""
    half = vec.size // 2
    return vec[:half] + 1j * vec[half:]


def _real(z):
    """Rows x + iy of C^(n+1) as rows (x, y) of R^(2n+2); inverse of `_complex`."""
    return np.concatenate([z.real, z.imag], axis=-1)


def _unit_horizontal(p, w):
    q = p.coords
    t = times_i(q)
    w = w - (q @ w) * q - (t @ w) * t
    return w / np.linalg.norm(w)


def _coarse_scan(qx, qy, dirs, bvals, ts):
    """Closest sample to qy on every closed-form geodesic of the grid.

    Returns one (t, gap, direction, b) per direction and b, directions
    outer.  On C^(n+1) the curve is z(t) = e1 c1 + e2 c2 with
    e1 = e^(i w1 t), e2 = e^(-i w2 t), so
        |z - zy|^2 = |c1|^2 + |c2|^2 + |zy|^2 + 2 Re(<c1, c2> e1 conj(e2))
                     - 2 Re(<c1, zy> e1) - 2 Re(<c2, zy> e2).
    The three Hermitian products are taken for every (direction, b) at
    once; the exponentials depend only on (b, t), so each b builds them
    once and weighs their real and imaginary parts into one
    (direction, t) table.
    """
    zy = _complex(qy)
    w = np.array([_complex(v) for v in dirs])[:, None, :]
    w1, w2, c1, c2 = _geodesic_coefficients(_complex(qx), w, bvals)
    c12 = (c1 * c2.conj()).sum(axis=2)
    c1y, c2y = c1 @ zy.conj(), c2 @ zy.conj()
    const = (np.abs(c1) ** 2).sum(axis=2) + (np.abs(c2) ** 2).sum(axis=2) + np.vdot(zy, zy).real
    # Re(p e) = Re p Re e - Im p Im e, in the order of the rows of `basis`.
    weights = 2.0 * np.stack(
        [c12.real, -c12.imag, -c1y.real, c1y.imag, -c2y.real, c2y.imag], axis=2
    )
    rows = np.arange(len(dirs))
    best = np.empty((len(dirs), bvals.size), dtype=int)
    gaps = np.empty((len(dirs), bvals.size))
    for j in range(bvals.size):
        e1 = np.exp(1j * w1[j] * ts)
        e2 = np.exp(-1j * w2[j] * ts)
        e12 = e1 * e2.conj()
        basis = np.stack([e12.real, e12.imag, e1.real, e1.imag, e2.real, e2.imag])
        sq = weights[:, j] @ basis
        sq += const[:, j, None]
        best[:, j] = np.argmin(sq, axis=1)
        gaps[:, j] = np.sqrt(np.maximum(sq[rows, best[:, j]], 0.0))
    return [
        (ts[best[d, j]], float(gaps[d, j]), v, float(bvals[j]))
        for d, v in enumerate(dirs)
        for j in range(bvals.size)
    ]


def _shot_basis(qx, v0, w0):
    """Real (2n+2, 6) matrix of k -> k0 z0 + k1 v0 + k2 w0, acting on (Re k, Im k)."""
    span = np.stack([_complex(qx), _complex(v0), _complex(w0)], axis=1)
    return np.block([[span.real, -span.imag], [span.imag, span.real]])


def _shot_coefficients(params):
    """The closed form at (phi, b, |t|) and its partials, in the basis (z0, v0, w0).

    With w = cos(phi) v0 + sin(phi) w0, e1 = e^(i w1 |t|),
    e2 = e^(-i w2 |t|) and S = w1 + w2 = 2r, r = sqrt(1+b^2), the endpoint is
        z = alpha z0 + beta w,  alpha = (w2 e1 + w1 e2)/S,  beta = i(e2 - e1)/S.
    Since w1 w2 = 1, d/dt gives alpha_t = i(e1 - e2)/S and
    beta_t = (w1 e1 + w2 e2)/S, times sign(t); d/dphi turns w into
    w' = -sin(phi) v0 + cos(phi) w0; and dw1/db = -w1/r, dw2/db = w2/r give
        alpha_b = (w2 e1 - w1 e2 - i|t|(e1 + e2))/(rS) - alpha b/r^2,
        beta_b = |t|(w2 e2 - w1 e1)/(rS) - beta b/r^2.
    Returns the complex (3, 4) matrix whose columns are z, dz/dphi,
    dz/db and dz/dt.
    """
    phi, b, t = params.tolist()
    cos, sin = math.cos(phi), math.sin(phi)
    root = math.sqrt(1.0 + b * b)
    w1, w2 = root - b, root + b
    total = w1 + w2
    tau = abs(t)
    sign = math.copysign(1.0, t)
    e1 = cmath.exp(1j * w1 * tau)
    e2 = cmath.exp(-1j * w2 * tau)
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


def _endpoint_residual(params, basis, qy):
    """z(phi, b, |t|) - y in R^(2n+2); `basis` is `_shot_basis(x, v0, w0)`."""
    c = _shot_coefficients(params)[:, 0]
    return basis @ np.concatenate([c.real, c.imag]) - qy


def _endpoint_jacobian(params, basis, qy):
    """The analytic (2n+2, 3) Jacobian of `_endpoint_residual`."""
    c = _shot_coefficients(params)[:, 1:]
    return basis @ np.concatenate([c.real, c.imag])


def cc_distance(x, y, budget=None):
    """Upper bound on the Carnot-Caratheodory distance by shooting.

    Scans unit horizontal directions and multiplier values b at x along
    the closed-form geodesics, then refines the best endpoint matches
    by Levenberg-Marquardt on the endpoint residual z(phi, b, |t|) - y,
    with the analytic Jacobian in (phi, b, t) and at most
    `refine_maxiter` residual evaluations per candidate.  The estimate
    is the parameter length of the shortest refined solution that hits
    y within the endpoint tolerance.  A certificate trace of the winning
    curve is returned; when nothing converges the best effort is
    flagged.
    """
    budget = budget or ShootingBudget()
    qx, qy = x.coords, (y.coords if isinstance(y, SpherePoint) else np.asarray(y))
    if np.array_equal(qx, qy):
        trace = GeodesicTrace(
            np.zeros(1), qx[None, :].copy(), np.zeros((1, qx.size)), np.zeros(1)
        )
        return CCDistanceResult(0.0, True, 0.0, np.zeros(qx.size), 0.0, trace)

    dirs = _direction_grid(x, budget)
    bvals = np.linspace(-budget.b_span, budget.b_span, budget.num_b)
    ts = np.linspace(1e-4, budget.t_max, budget.coarse_samples)
    candidates = _coarse_scan(qx, qy, dirs, bvals, ts)
    # Seed the refinement with the closest approaches; add the shortest
    # curves that came reasonably near so short solutions are preferred
    # when several exist.
    by_gap = sorted(candidates, key=lambda c: c[1])
    near = sorted((c for c in candidates if c[1] < 0.25), key=lambda c: c[0])
    shortlist = []
    for entry in by_gap[: budget.refine_candidates] + near[:4]:
        if not any(entry is kept for kept in shortlist):
            shortlist.append(entry)

    hits = []
    misses = []
    evaluations = 0
    for t0, gap0, v0, b0 in shortlist:
        w0 = _unit_horizontal(x, times_i(v0))
        # x_scale=1: scaling by the Jacobian's column norms lets the phi
        # and b columns, which vanish like t, take huge steps from the
        # near candidates that start at t ~ 0, and b runs off to ~1e5.
        res = optimize.least_squares(
            _endpoint_residual,
            np.array([0.0, b0, t0]),
            jac=_endpoint_jacobian,
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            x_scale=1.0,
            max_nfev=budget.refine_maxiter,
            args=(_shot_basis(qx, v0, w0), qy),
        )
        evaluations += res.nfev
        phi, b, t = res.x
        gap = float(np.linalg.norm(res.fun))
        v = _unit_horizontal(x, np.cos(phi) * v0 + np.sin(phi) * w0)
        entry = (abs(float(t)), gap, v, float(b))
        (hits if gap <= budget.endpoint_tol else misses).append(entry)
    if hits:
        best = min(hits, key=lambda e: e[0])
    elif misses:
        best = min(misses, key=lambda e: e[1])
    else:
        best = candidates[0]
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


def eigen_along_geodesic(f, trace):
    """Least-squares fit of A cos(w s) to f along a trace.

    The trace must start at a maximum point of f; returns (amplitude,
    frequency, max fit residual).  The frequency is seeded from the
    first near-minimal sample (a periodic trace repeats its minimum, so
    a bare argmin may land on a later copy and mislead the optimizer);
    a few harmonically related seeds are tried and the best fit kept.
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
