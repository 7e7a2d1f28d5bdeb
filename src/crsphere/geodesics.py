"""Sub-Riemannian and adapted-connection geodesics on the spheres.

Two independent integrations of the same curves:

  * the ambient second-order ODE of the adapted connection,
        gamma'' = -|gamma'|^2 gamma + (2 theta(gamma') - 2 b) i pi_H gamma',
    run with a classical fixed-step fourth-order integrator, the
    position renormalized to the sphere each step.  With the Hermitian
    product c = <gamma, gamma'> on C^(n+1), pi_H gamma' = gamma' - c gamma
    and theta(gamma') = Im c, so
        gamma'' = k gamma' - (k c + |gamma'|^2) gamma,  k = 2i (Im c - b),
    a complex combination of gamma and gamma'.  Every RK4 stage
    therefore stays in the plane span_C{q0, v0} of the initial data,
    and the step runs on the coefficients of gamma and gamma' over a
    Hermitian-orthonormal basis of that plane, whatever n is;

  * the Hamilton-Jacobi flow of the horizontal cometric, lifted to the
    homogeneous ambient Hamiltonian on R^(2n+2) x R^(2n+2),
        H(q, p) = (1/2)(|q|^2 |p|^2 - (q.p)^2 - (iq.p)^2),
    half the squared length of p's horizontal part at |q| = 1.  H is
    unchanged by p -> p + lambda q, so |q|^2, q.p and iq.p are first
    integrals: the flow keeps q on the sphere with no chart, pole or
    renormalization, and the cotangent lift v + b iq starts it.  (The
    same H without the factor |q|^2 makes (q.p)' = |p|^2, and the flow
    blows up in finite time.)  The stereographic chart form of H lives
    in the tests, as the oracle the flow is compared against.

Both step loops are straight-line Python arithmetic on named floats,
where a numpy call costs more than its arithmetic; the HJ step is
generated once per n (`_hj_source`) and compiled on first use.  numpy
only holds the traces, written row by row into preallocated arrays.

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
from operator import index

import numpy as np

from .calculus import ScalarField, _rationalize
from .polynomials import Polynomial, evaluate_many
from .sphere import (
    ARG_TOL,
    SpherePoint,
    TangentVector,
    _check_points,
    _check_tangent,
    _finite,
    _is_positive_int,
    _norms,
    _point_coords,
    _vec_at,
    horizontal_frame,
    times_i,
)

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
        if not isinstance(self.v, TangentVector):
            raise ValueError("geodesic initial velocity must be a TangentVector")
        _vec_at(self.x, self.v, "geodesic initial velocity", horizontal=True)
        if not math.isfinite(self.b):
            raise ValueError("the multiplier b must be finite, got %r" % (self.b,))


@dataclass(eq=False)
class GeodesicTrace:
    """Discretized curve with conservation diagnostics."""

    s: np.ndarray
    points: np.ndarray       # (N, 2n+2)
    velocities: np.ndarray   # (N, 2n+2)
    b: np.ndarray            # (N,)
    events: list = field(default_factory=list)  # always empty; perfbench's handoff counter reads it

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


def _great_circle_direction(x0, v):
    """v as a float array, or ValueError unless it is a unit horizontal
    direction at x0 to ARG_TOL, or a (K, m) stack of them checked
    together.  The unit guard runs first and is written so that a NaN
    fails it."""
    vec = v.vec if isinstance(v, TangentVector) else np.asarray(v, dtype=float)
    if not np.all(np.abs(_norms(vec) - 1.0) <= ARG_TOL):
        raise ValueError("great_circle expects a unit direction")
    if vec.ndim == 2 and vec.shape[1:] == x0.coords.shape:
        _check_tangent(x0.coords, vec, ARG_TOL, "great_circle direction", horizontal=True)
        return vec
    return _vec_at(x0, v, "great_circle direction", horizontal=True)


def great_circle(x0, v, s):
    """x0 cos s + v sin s: the b = 0 geodesic in closed form."""
    return SpherePoint(great_circle_points(x0, v, s), x0.n)


def great_circle_points(x0, v, s):
    """x0 cos s + v sin s, normalised, at every entry of s, as the rows of one array.

    v is one direction, or a (K, m) stack of directions at x0; s and
    the directions broadcast, so a stack at one s gives one row per
    direction.  The directions are validated once; each row is
    normalised.
    """
    vec = _great_circle_direction(x0, v)
    s = np.asarray(s, dtype=float)[..., None]
    out = x0.coords * np.cos(s) + vec * np.sin(s)
    return out / _norms(out)[..., None]


def integrate_connection_geodesic(init, s_max, step):
    """Fixed-step RK4 for the connection geodesic ODE.

    The four stages are written out on the real (r) and imaginary (i)
    parts of q = a e1 + beta e2 and v = g e1 + d e2 (b for beta) over the
    orthonormal basis of `_plane_basis`, so c = <q, v> = conj(a) g +
    conj(beta) d, |v|^2 = |g|^2 + |d|^2, a step makes no complex operation
    and its cost does not depend on n.  Stage S has the point (aS, bS, gS, dS)
    and gamma'' = k (v - c q) - |v|^2 q = (gaS, gbS), k = 2i (Im c - mult).
    The position is renormalized to the sphere by its ambient norm
    sqrt(|a|^2 + |beta|^2).  The multiplier mult evolves by b' = A(gamma', gamma'),
    and the spheres have no pseudohermitian torsion A, so it stays constant.
    """
    steps = _step_schedule(s_max, step)
    basis, y = _plane_basis(_complex(init.x.coords), _complex(init.v.vec))
    mult = float(init.b)
    svals = np.empty(len(steps) + 1)
    rows = np.empty((len(steps) + 1, 8))
    svals[0], rows[0] = 0.0, y
    ar, ai, br, bi, gr, gi, dr, di = y
    s = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        cr, ci = ar * gr + ai * gi + br * dr + bi * di, ar * gi - ai * gr + br * di - bi * dr
        vv, k = gr * gr + gi * gi + dr * dr + di * di, 2.0 * (ci - mult)
        ur, ui = gr - (cr * ar - ci * ai), gi - (cr * ai + ci * ar)
        wr, wi = dr - (cr * br - ci * bi), di - (cr * bi + ci * br)
        ga1r, ga1i = -k * ui - vv * ar, k * ur - vv * ai
        gb1r, gb1i = -k * wi - vv * br, k * wr - vv * bi
        a2r, a2i = ar + half * gr, ai + half * gi
        b2r, b2i = br + half * dr, bi + half * di
        g2r, g2i = gr + half * ga1r, gi + half * ga1i
        d2r, d2i = dr + half * gb1r, di + half * gb1i
        cr, ci = a2r * g2r + a2i * g2i + b2r * d2r + b2i * d2i, a2r * g2i - a2i * g2r + b2r * d2i - b2i * d2r
        vv, k = g2r * g2r + g2i * g2i + d2r * d2r + d2i * d2i, 2.0 * (ci - mult)
        ur, ui = g2r - (cr * a2r - ci * a2i), g2i - (cr * a2i + ci * a2r)
        wr, wi = d2r - (cr * b2r - ci * b2i), d2i - (cr * b2i + ci * b2r)
        ga2r, ga2i = -k * ui - vv * a2r, k * ur - vv * a2i
        gb2r, gb2i = -k * wi - vv * b2r, k * wr - vv * b2i
        a3r, a3i = ar + half * g2r, ai + half * g2i
        b3r, b3i = br + half * d2r, bi + half * d2i
        g3r, g3i = gr + half * ga2r, gi + half * ga2i
        d3r, d3i = dr + half * gb2r, di + half * gb2i
        cr, ci = a3r * g3r + a3i * g3i + b3r * d3r + b3i * d3i, a3r * g3i - a3i * g3r + b3r * d3i - b3i * d3r
        vv, k = g3r * g3r + g3i * g3i + d3r * d3r + d3i * d3i, 2.0 * (ci - mult)
        ur, ui = g3r - (cr * a3r - ci * a3i), g3i - (cr * a3i + ci * a3r)
        wr, wi = d3r - (cr * b3r - ci * b3i), d3i - (cr * b3i + ci * b3r)
        ga3r, ga3i = -k * ui - vv * a3r, k * ur - vv * a3i
        gb3r, gb3i = -k * wi - vv * b3r, k * wr - vv * b3i
        a4r, a4i = ar + h * g3r, ai + h * g3i
        b4r, b4i = br + h * d3r, bi + h * d3i
        g4r, g4i = gr + h * ga3r, gi + h * ga3i
        d4r, d4i = dr + h * gb3r, di + h * gb3i
        cr, ci = a4r * g4r + a4i * g4i + b4r * d4r + b4i * d4i, a4r * g4i - a4i * g4r + b4r * d4i - b4i * d4r
        vv, k = g4r * g4r + g4i * g4i + d4r * d4r + d4i * d4i, 2.0 * (ci - mult)
        ur, ui = g4r - (cr * a4r - ci * a4i), g4i - (cr * a4i + ci * a4r)
        wr, wi = d4r - (cr * b4r - ci * b4i), d4i - (cr * b4i + ci * b4r)
        ga4r, ga4i = -k * ui - vv * a4r, k * ur - vv * a4i
        gb4r, gb4i = -k * wi - vv * b4r, k * wr - vv * b4i
        ar, ai = ar + sixth * (gr + 2 * g2r + 2 * g3r + g4r), ai + sixth * (gi + 2 * g2i + 2 * g3i + g4i)
        br, bi = br + sixth * (dr + 2 * d2r + 2 * d3r + d4r), bi + sixth * (di + 2 * d2i + 2 * d3i + d4i)
        gr, gi = gr + sixth * (ga1r + 2 * ga2r + 2 * ga3r + ga4r), gi + sixth * (ga1i + 2 * ga2i + 2 * ga3i + ga4i)
        dr, di = dr + sixth * (gb1r + 2 * gb2r + 2 * gb3r + gb4r), di + sixth * (gb1i + 2 * gb2i + 2 * gb3i + gb4i)
        norm = math.sqrt(ar * ar + ai * ai + br * br + bi * bi)
        ar, ai, br, bi = ar / norm, ai / norm, br / norm, bi / norm
        s += h
        svals[i], rows[i] = s, (ar, ai, br, bi, gr, gi, dr, di)
    # rows alternate q and v; freeing them before the traces are built lowers the peak memory
    z = rows.view(complex).reshape(-1, 2) @ basis
    del rows
    return GeodesicTrace(svals, _real(z[0::2]), _real(z[1::2]), np.full(len(steps) + 1, mult))


def _plane_basis(q0, v0):
    """Hermitian-orthonormal (e1, e2) as a (2, n+1) array, and the eight floats of (q0, v0) over it.

    e1 = q0/|q0| and e2 = w/|w| for w = v0 - <e1, v0> e1, or 0 when w is 0."""
    r = float(np.linalg.norm(q0))
    e1 = q0 / r
    g = complex(np.vdot(e1, v0))
    w = v0 - g * e1
    d = float(np.linalg.norm(w))
    return np.stack([e1, w / d if d else w]), (r, 0.0, 0.0, 0.0, g.real, g.imag, d, 0.0)


def _step_schedule(s_max, step):
    """Fixed steps, with one shorter final step for the remainder.

    A remainder of at most 1e-12 is dropped.  The integrators record s
    as the running sum of the steps, so the last recorded s is s_max
    only up to rounding: 2 pi at step 2e-3 ends at 6.283185307179116,
    4.7e-13 short.

    The guards are written `not ...`, so that a NaN step or length
    fails them too.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if step > MAX_STEP:
        raise ValueError("step must be <= %g" % MAX_STEP)
    if not 0 < s_max < math.inf:
        raise ValueError("the integration length must be finite and positive")
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
    q = x0.coords
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
    vec = _vec_at(x0, w, "exp_map direction", horizontal=True)
    r = float(np.linalg.norm(vec))
    if r == 0.0:
        return x0
    return great_circle(x0, vec / r, r)


# ----------------------------------------------------------------------
# The Hamilton-Jacobi system in ambient coordinates.
# ----------------------------------------------------------------------


@dataclass(eq=False)
class CotangentState:
    """A unit position x in R^(2n+2) and an ambient covector xi there."""

    x: np.ndarray
    xi: np.ndarray
    n: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        _finite(self.x, "cotangent position")
        _finite(self.xi, "cotangent covector")
        self.n = _check_points(self.x, self.n, ())
        if self.xi.shape != self.x.shape:
            raise ValueError("cotangent covector of shape %s at a position of shape %s"
                             % (self.xi.shape, self.x.shape))


def cotangent_lift(p, v, reeb_component=1.0):
    """Covector with xi(X) = g(v, X) on H and xi(T) = reeb_component.

    Its ambient representative, and the start of the HJ flow, is
    v + reeb_component * i p.
    """
    if not math.isfinite(reeb_component):
        raise ValueError("the Reeb component must be finite, got %r" % (reeb_component,))
    vec = _vec_at(p, v, "cotangent_lift direction", horizontal=True)
    q = p.coords
    return CotangentState(q, vec + float(reeb_component) * times_i(q), p.n)


def _hj_rhs(q, p):
    """(dH/dp, -dH/dq) for H = (1/2)(|q|^2 |p|^2 - (q.p)^2 - (iq.p)^2).

    With a = q.p and c = iq.p, and iq.p = -q.ip,
        dH/dp = |q|^2 p - a q - c iq,   -dH/dq = a p - c ip - |p|^2 q.
    q and p are sequences of 2n+2 floats; both parts come back as
    lists.  The arithmetic is written out once, in `_hj_source`, and
    this is its `rhs`.
    """
    return _hj_kernel(len(q) // 2 - 1)[0](q, p)


def _hj_source(n):
    """Source of the HJ field `rhs` and step loop `run` at CR dimension n, on named scalars.

    A name ending in an index j is one float: the state q, p, the stage
    points sq, sp and the stage fields kSq, kSp (S = 1..4).  Each line
    makes the list form's float operations on the same operands in the
    same order, so the traces equal its traces bit for bit: a dot
    product adds left to right from 0, and a term - c * (-y) of the list
    form is written + c * y, which IEEE arithmetic rounds alike.
    """
    m = 2 * n + 2
    js = range(m)
    # i(x, y) = (-y, x): entry j of iq is -q_(j+n+1) up to j = n and q_(j-n-1) after
    ij = [(j + n + 1) % m for j in js]
    isign = ["-" if j <= n else "+" for j in js]  # of q_ij in iq_j, so of q_ij p_j in c
    csign = ["+" if j <= n else "-" for j in js]  # of c q_ij in the term - c iq_j

    def seq(name):
        return ", ".join("%s%d" % (name, j) for j in js)

    def dot(a, b):
        return "0" + "".join(" + %s%d * %s%d" % (a, j, b, j) for j in js)

    def field(q, p, dq, dp):
        c = "0" + "".join(" %s %s%d * %s%d" % (isign[j], q, ij[j], p, j) for j in js)
        return ["qq, a, pp, c = %s, %s, %s, %s" % (dot(q, q), dot(q, p), dot(p, p), c)] + [
            "%s%d = qq * %s%d - a * %s%d %s c * %s%d" % (dq, j, p, j, q, j, csign[j], q, ij[j])
            for j in js
        ] + [
            "%s%d = a * %s%d %s c * %s%d - pp * %s%d" % (dp, j, p, j, csign[j], p, ij[j], q, j)
            for j in js
        ]

    body = []
    for k, scale in ((1, "half"), (2, "half"), (3, "h")):  # stage k + 1 at y + scale * k_k
        body += ["s{y}{j} = {y}{j} + {h} * k{k}{y}{j}".format(y=y, j=j, h=scale, k=k)
                 for y in "qp" for j in js]
        body += field("sq", "sp", "k%dq" % (k + 1), "k%dp" % (k + 1))
    body += ["{y}{j} = {y}{j} + sixth * (k1{y}{j} + 2 * k2{y}{j} + 2 * k3{y}{j} + k4{y}{j})".format(
        y=y, j=j) for y in "qp" for j in js]
    # the next step's first stage, whose dq is the recorded velocity
    body += ["t += h"] + field("q", "p", "k1q", "k1p")
    return _HJ_TEMPLATE.format(
        q=seq("q"), p=seq("p"), k1q=seq("k1q"), k1p=seq("k1p"),
        field="\n    ".join(field("q", "p", "k1q", "k1p")), body="\n        ".join(body),
    )


_HJ_TEMPLATE = """\
def rhs(q, p):
    ({q}), ({p}) = q, p
    {field}
    return [{k1q}], [{k1p}]


def run(q, p, k1q, k1p, steps, svals, points, vels):
    ({q}), ({p}), ({k1q}), ({k1p}) = q, p, k1q, k1p
    t = 0.0
    for i, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0
        {body}
        svals[i], points[i], vels[i] = t, ({q}), ({k1q})
"""


@functools.lru_cache(maxsize=None, typed=True)
def _hj_kernel(n):
    """(rhs, run) of `_hj_source(n)`, compiled on first use at each CR dimension n.

    A bool, a float or n < 1 raises ValueError; the cache is typed, so
    a float equal to a cached numpy integer is refused too.  The code
    reads no global of this module.
    """
    if not _is_positive_int(n):
        raise ValueError("CR dimension must be a positive integer, got %r" % (n,))
    namespace = {}
    exec(compile(_hj_source(index(n)), "<hj kernel n=%d>" % n, "exec"), namespace)
    return namespace["rhs"], namespace["run"]


def integrate_hj_geodesic(init, t_max, step):
    """Fixed-step RK4 for the Hamilton-Jacobi system in ambient coordinates.

    The Hamiltonian field is `_hj_rhs`, and the step loop is the `run`
    of `_hj_kernel(n)`, written out on the 2n+2 floats of q and of p, so
    a step builds no list.  Each recorded row is the point q and the
    velocity dH/dp at it, which the next step's first stage computes.
    |q|^2 and iq.p are first integrals: q is not renormalized, and b is
    the start's iq.p, the lift's Reeb component.  `events` stays empty.
    """
    steps = _step_schedule(t_max, step)
    q, p = init.x.tolist(), init.xi.tolist()
    rhs, run = _hj_kernel(init.n)
    svals = np.empty(len(steps) + 1)
    points = np.empty((len(steps) + 1, len(q)))
    vels = np.empty((len(steps) + 1, len(q)))
    k1q, k1p = rhs(q, p)
    svals[0], points[0], vels[0] = 0.0, q, k1q
    run(q, p, k1q, k1p, steps, svals, points, vels)
    reeb = math.fsum(times_i(init.x) * init.xi)  # iq.p, correctly rounded in any order
    return GeodesicTrace(svals, points, vels, np.full(len(steps) + 1, reeb))


# ----------------------------------------------------------------------
# Carnot-Caratheodory distance by shooting.
# ----------------------------------------------------------------------


def riemannian_distance(x, y):
    return float(np.arccos(np.clip(x.coords @ y.coords, -1.0, 1.0)))


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
            if not _is_positive_int(value):
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
    local minimum of the profile in the lower half of its range: a
    periodic trace repeats its minimum, and on a profile that is not an
    exact cosine a later copy may be the lowest, so a global argmin can
    land a period too far and mislead the iteration.  A few harmonically
    related seeds are tried and the fit with the smallest max residual
    is kept.  A non-finite profile value, a constant profile, or a drop
    from every seed raises ValueError.
    """
    vals = f.poly.evaluate(trace.points)
    if not np.all(np.isfinite(vals)):
        raise ValueError("the profile along the trace has non-finite values")
    spread = float(np.ptp(vals))
    if spread < 1e-12:
        raise ValueError("field is constant along the trace; nothing to fit")
    s = np.asarray(trace.s, dtype=float)
    inner = vals[1:-1]
    dips = (inner <= vals[:-2]) & (inner <= vals[2:]) & (inner <= np.min(vals) + 0.5 * spread)
    first = np.flatnonzero(dips)
    s_min = s[int(first[0]) + 1 if first.size else int(np.argmin(vals))]
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
    one before it (the rounding floor; that step is not taken).  The
    floor is accepted only at a stationary point: J.r must lie within
    the rounding of its own evaluation, N eps |J| (|r| + |v|) over N
    samples, since r = v - A c is rounded relative to v.  Returns (A, w)
    as floats, or None when w turns non-finite, J.J is 0, the floor is
    reached away from a stationary point, or FIT_MAXITER steps do not
    settle it.
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
            floor = s.size * np.finfo(float).eps * math.sqrt(jj) * (
                math.sqrt(float(r @ r)) + math.sqrt(float(vals @ vals)))
            return (amp, w) if abs(step) * jj <= floor else None
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
    f_value: float
    grad_norm: float
    hess_tt: float


def reach_set_residual(pt, a, b):
    """Distance of a point's coordinates from the parametrized target circle.

    The circle's tuple has the interleaved slots (x1, y1, x2, y2); in the
    storage layout (x1, x2, y1, y2) its points satisfy x2 = -c x1,
    y2 = -c y1 and x1^2 + y1^2 = r^2.

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
    return max(
        abs(x2 + c * x1) / scale, abs(y2 + c * y1) / scale,
        abs(x1 * x1 + y1 * y1 - radius_sq),
    )


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
    phis = np.linspace(0.0, 2 * np.pi, num_samples, endpoint=False)
    # great_circle at pi/2 along every direction cos(phi) X_1 + sin(phi) X_2:
    # its guards run once over the stack, and the points are made as one
    dirs = np.cos(phis)[:, None] * mat[0] + np.sin(phis)[:, None] * mat[1]
    points = SpherePoint.stack(great_circle_points(x0, dirs, np.pi / 2.0), x0.n)
    # f's gradient, f and T^2 f at every reached point, in one evaluation
    values = evaluate_many([*f.grad_polys, f.poly, f.t0t0_poly], _point_coords(points))
    grads = np.ascontiguousarray(values[:, :-2])
    samples = []
    for pt, grad, (f_value, hess_tt) in zip(points, grads, values[:, -2:]):
        grad_t = grad - float(grad @ pt.coords) * pt.coords
        samples.append(
            ReachSample(
                point=pt,
                set_residual=reach_set_residual(pt.coords, a, b),
                f_value=f_value,
                grad_norm=float(np.linalg.norm(grad_t)),
                hess_tt=hess_tt,
            )
        )
    return samples
